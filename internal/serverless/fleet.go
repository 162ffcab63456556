package serverless

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/kvcache"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/workload"
)

// Node is one host the event loop places instances on.
type Node struct {
	// GPUs bounds the GPUs the node's instances occupy.
	GPUs int
	// WarmContainers sizes the node's pool of pre-initialized execution
	// environments; launches beyond it also pay runtime init. 0 means
	// an unbounded pool (the paper's assumption).
	WarmContainers int
	// Cache fronts the shared artifact registry for launches placed on
	// the node. Nil makes a cacheless node, as in the paper's GPU pool:
	// launches read the artifact from the deployment's model store.
	Cache *artifactcache.NodeCache
}

// Fleet is the input of one event-loop run: the nodes, the deployments
// sharing them, their traffic and the control plane. RunMulti runs the
// paper's GPU pool as a one-node fleet without a cache; the cluster
// package builds multi-node fleets with tiered artifact caches.
type Fleet struct {
	// Nodes are the hosts, indexed by position.
	Nodes []Node
	// Deployments are the co-located models.
	Deployments []Deployment
	// Arrivals, when set, supplies every deployment's traffic as one
	// pre-merged stream (see MultiConfig.Arrivals).
	Arrivals ArrivalSource
	// Faults injects deterministic faults into launches and schedules
	// the plan's node crashes.
	Faults FaultSpec
	// Autoscaler decides how many instances each deployment keeps live
	// (nil: the reactive baseline).
	Autoscaler autoscale.Policy
	// Router orders each deployment's ready instances for dispatch (nil:
	// launch order).
	Router router.Policy
	// SLO enables per-request deadline accounting when nonzero.
	SLO SLO
	// LocalityWeight scales the placer's preference for nodes whose
	// cache holds the deployment's artifact against their load.
	LocalityWeight float64
	// Seed namespaces the follow-up sampling, together with each
	// deployment's own seed.
	Seed int64
	// Metrics receives the run-wide fault counters (degraded launches,
	// node crashes, requeues); nil keeps them private to the run.
	Metrics *obs.Registry
}

// NodeUsage is one node's share of a run.
type NodeUsage struct {
	// Launches counts instances placed on the node.
	Launches int
	// Crashed reports whether a fault plan killed the node mid-run.
	Crashed bool
	// Up is how long the node hosted at least one instance; nodes
	// hosting instances at the end are charged to the last completion.
	Up time.Duration
}

// ArtifactCacheKey names the deployment's artifact in the artifact
// registry and node caches, keyed by (model, strategy) so distinct
// artifact-based strategies of one model cache independently.
func (c Config) ArtifactCacheKey() string {
	return engine.ArtifactKey(c.Model.Name) + "@" + c.Strategy.String()
}

// RunFleet simulates the fleet's deployments on its nodes.
func RunFleet(f Fleet) (*MultiResult, error) {
	if len(f.Deployments) == 0 {
		return nil, fmt.Errorf("serverless: no deployments")
	}
	sim := &simulation{
		reg:            f.Metrics,
		scaler:         f.Autoscaler,
		router:         f.Router,
		slo:            f.SLO,
		localityWeight: f.LocalityWeight,
	}
	if sim.reg == nil {
		sim.reg = obs.NewRegistry()
	}
	if sim.scaler == nil {
		sim.scaler = autoscale.NewReactive()
	}
	if f.Faults.Plan != nil {
		inj, err := faults.NewInjector(*f.Faults.Plan)
		if err != nil {
			return nil, err
		}
		sim.inj = inj // nil for a zero plan: the fault paths vanish
	}
	maxGPUs, cached := 0, false
	for i, n := range f.Nodes {
		ns := &nodeState{id: i, gpus: n.GPUs, warmLeft: -1, cache: n.Cache}
		if n.WarmContainers > 0 {
			ns.warmLeft = n.WarmContainers
		}
		if n.Cache != nil {
			n.Cache.SetFaults(sim.inj)
			cached = true
		}
		maxGPUs = max(maxGPUs, n.GPUs)
		sim.nodes = append(sim.nodes, ns)
	}
	if maxGPUs == 0 {
		return nil, fmt.Errorf("serverless: fleet has no GPUs")
	}

	// A pre-merged stream or any per-deployment Source puts the run in
	// streaming mode.
	streaming := f.Arrivals != nil
	for _, dep := range f.Deployments {
		if dep.Source != nil {
			streaming = true
		}
	}
	for di, dep := range f.Deployments {
		if !streaming && len(dep.Requests) == 0 {
			return nil, fmt.Errorf("serverless: deployment %d (%s) has an empty trace", di, dep.Name)
		}
		d, err := sim.newDeployment(di, dep, maxGPUs, f.Seed)
		if err != nil {
			return nil, err
		}
		d.bindInstruments(cached, !f.SLO.Zero())
		if !streaming {
			d.seenArr = true
			d.firstArr = dep.Requests[0].Arrival
		}
		sim.deps = append(sim.deps, d)
	}
	// Streaming traffic is numbered in delivery order. Slice traffic
	// keeps the historical numbering, which tracer span names embed:
	// global IDs in deployment-concatenation order, follow-ups after all
	// initial requests. Either way the per-deployment streams merge by
	// (arrival, deployment) — the order the old all-events-upfront
	// scheduler delivered simultaneous arrivals in.
	sim.renumber = streaming
	sim.src = f.Arrivals
	if sim.src == nil {
		perDep := make([]workload.Source, len(f.Deployments))
		for di, dep := range f.Deployments {
			reqs := dep.Requests
			if !streaming {
				reqs = append([]workload.Request(nil), reqs...)
				for i := range reqs {
					reqs[i].ID = sim.nextID
					sim.nextID++
				}
			}
			perDep[di] = workload.NewSlice(reqs)
			if dep.Source != nil {
				perDep[di] = dep.Source
			}
		}
		sim.src = MergeArrivals(perDep)
	}
	return sim.run()
}

// newDeployment applies the deployment's defaults and builds its
// profiles: the primary one, and under a fault plan the vanilla
// fallback that degraded launches serve with. seed is the fleet's.
func (s *simulation) newDeployment(di int, dep Deployment, gpus int, seed int64) (*depState, error) {
	dcfg := dep.Config
	dcfg.NumGPUs = gpus
	dcfg, err := dcfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("deployment %d (%s): %w", di, dep.Name, err)
	}
	prof, err := newProfile(dcfg)
	if err != nil {
		return nil, fmt.Errorf("serverless: profiling %s: %w", dep.Name, err)
	}
	name := dep.Name
	if name == "" {
		name = fmt.Sprintf("deployment-%d", di)
	}
	// Resolve the batched-execution parameters against the measured
	// profile: an unset KV pool inherits the instance's measured KV
	// capacity, so legacy and batched admission see the same memory.
	batch := dcfg.Scheduler.Batch
	if batch.Enabled() && batch.KVBlocks == 0 {
		batch.KVBlocks = prof.maxKVTok / kvcache.TokensPerBlock
	}
	d := &depState{
		cfg:     dcfg,
		prof:    prof,
		name:    name,
		batched: batch.Enabled(),
		batch:   batch,
		reg:     obs.NewRegistry(),
		phases:  obs.NewPhaseBreakdown(),
		rng:     rand.New(rand.NewSource(seed ^ dcfg.Seed ^ 0x5eed ^ int64(di))),
	}
	if dcfg.RetainPerRequest {
		d.reg.RetainSamples()
	}
	// Tensor-parallel instances materialize per-rank artifacts inside
	// the engine, so only single-GPU artifact strategies read or fetch
	// one at launch.
	if !dcfg.Strategy.NeedsArtifact() || dcfg.TPDegree > 1 {
		return d, nil
	}
	d.key = dcfg.ArtifactCacheKey()
	if t := dcfg.Cache.Template; t != nil {
		d.tmplKey = t.ID()
	}
	if s.inj == nil {
		return d, nil
	}
	// Under a nonzero fault plan the deployment gets a vanilla fallback
	// profile so a failed or untrusted restore degrades instead of
	// aborting (§4's fallback path); the fallback reads weights from the
	// model store, not the artifact. One local artifact read's duration
	// stands in for a failed read attempt's cost.
	fcfg := dcfg
	fcfg.Strategy = engine.StrategyVLLM
	fcfg.Cache = CacheSpec{}
	if d.fallback, err = newProfile(fcfg); err != nil {
		return nil, fmt.Errorf("serverless: profiling %s fallback: %w", dep.Name, err)
	}
	size, err := dcfg.Cache.ColdFetchBytes()
	if err != nil {
		return nil, fmt.Errorf("serverless: encoding %s artifact: %w", dep.Name, err)
	}
	d.artRead = dcfg.Store.Array().ReadDuration(size)
	d.fkey = dcfg.Model.Name + "@" + dcfg.Strategy.String()
	return d, nil
}
