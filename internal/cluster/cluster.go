// Package cluster runs the serverless simulator's event loop on a
// multi-node fleet with a tiered artifact cache. The single pool
// answers "how bad are cold starts"; this package answers the question
// the fleet operator actually faces: WHERE to place a cold-starting
// instance so the (model, strategy) artifact it needs is already
// nearby. Each node fronts the shared artifact registry with a
// two-tier local cache (host page cache, node-local SSD — see
// internal/artifactcache), and the placer trades artifact locality
// against load balance with a configurable weight.
//
// Everything is deterministic: one event loop on virtual time, heap
// tie-breaks by sequence number, RNGs seeded from the Config, no wall
// clock. Fixed-seed runs render byte-identical Results and obs exports
// regardless of repetition or GOMAXPROCS.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// DefaultLocalityWeight is the placement trade-off used when callers do
// not set one: locality contributes up to this much score against a
// load term in [0, 1].
const DefaultLocalityWeight = 0.6

// Config parameterizes one multi-node simulation.
type Config struct {
	// Nodes is the fleet size (default 2).
	Nodes int
	// GPUsPerNode bounds instances per node (default 4, the paper's
	// testbed as one node).
	GPUsPerNode int
	// Cache sizes and times each node's local tiers and selects the
	// eviction policy (zero value: artifactcache.DefaultParams).
	Cache artifactcache.Params
	// Network times the shared artifact registry link (zero value:
	// artifactcache.DefaultNetwork).
	Network storage.Array
	// LocalityWeight scales the placer's preference for nodes whose
	// cache holds the deployment's artifact: score = weight·locality −
	// load. 0 means pure load balancing; negative values are rejected.
	LocalityWeight float64
	// PrewarmSSD pre-pulls every deployment's artifact onto every
	// node's SSD tier before the trace starts (operator-driven warm-up,
	// charged no virtual time).
	PrewarmSSD bool
	// Seed namespaces the simulation's RNGs (follow-up sampling).
	Seed int64
	// Deployments are the co-located models, sharing the fleet.
	Deployments []serverless.Deployment
	// Tracer, when set, receives cold-start, iteration and queueing
	// spans (as the single-pool simulator records) plus per-node cache
	// fetch spans on "storage/cache/node<N>" tracks.
	Tracer *obs.Tracer
	// Arrivals, when set, streams the whole fleet's traffic instead of
	// per-deployment Requests slices: the simulator pulls one arrival at
	// a time, so memory stays O(active requests) however long the trace.
	// Each emitted deployment index must be valid and arrivals must be
	// nondecreasing. Deployments' Requests/Source fields are ignored
	// when set.
	Arrivals serverless.ArrivalSource
	// RetainPerRequest keeps every per-request latency observation in
	// the result samples (exact quantiles, O(requests) memory). Off by
	// default: samples keep exact count/mean/max plus a deterministic
	// bounded reservoir for quantiles.
	RetainPerRequest bool
	// Autoscaler decides how many instances each deployment keeps live,
	// evaluated on every control tick (arrival, iteration end, idle
	// retirement, node crash). Nil selects the reactive baseline, which
	// reproduces the legacy autoscaler byte-for-byte. A stateful policy
	// (autoscale.NewPredictive) must not be shared across runs.
	Autoscaler autoscale.Policy
	// Router orders each deployment's ready instances for dispatch by
	// score (queue depth, KV headroom, artifact locality, predicted
	// TTFT), ties broken by lowest instance id. Nil keeps the legacy
	// launch-order walk, byte-identical to before routing was pluggable.
	Router router.Policy
	// SLO, when nonzero, enables per-request deadline accounting: each
	// deployment reports how many completed requests met every
	// configured deadline, and the Result carries fleet-wide SLO
	// attainment. The zero value changes nothing.
	SLO serverless.SLO
	// Faults, when holding a nonzero plan, injects deterministic faults
	// (artifact corruption, registry fetch timeouts, SSD read errors,
	// restore-validation mismatches, node crashes) into the run. Every
	// injected fault is survivable: launches degrade to the vanilla
	// cold-start stages and crashed nodes' work is re-placed. A nil or
	// zero plan leaves the simulation bit-identical to a fault-free
	// build. The sub-config and its Validate are shared with the
	// single-pool simulator. See FAILURES.md for the full catalog.
	Faults serverless.FaultSpec
}

func (c Config) withDefaults() (Config, error) {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 4
	}
	if c.Nodes < 0 || c.GPUsPerNode < 0 {
		return c, fmt.Errorf("cluster: Nodes %d and GPUsPerNode %d must be positive", c.Nodes, c.GPUsPerNode)
	}
	if c.LocalityWeight < 0 {
		return c, fmt.Errorf("cluster: LocalityWeight must be ≥ 0, got %g", c.LocalityWeight)
	}
	if err := c.SLO.Validate(); err != nil {
		return c, err
	}
	if c.Cache == (artifactcache.Params{}) {
		c.Cache = artifactcache.DefaultParams()
	}
	if c.Network == (storage.Array{}) {
		c.Network = artifactcache.DefaultNetwork()
	}
	if len(c.Deployments) == 0 {
		return c, fmt.Errorf("cluster: no deployments")
	}
	if c.Faults.Plan != nil {
		if err := c.Faults.Validate(); err != nil {
			return c, err
		}
		crashed := make(map[int]bool)
		for _, nc := range c.Faults.Plan.NodeCrashes {
			if nc.Node >= c.Nodes {
				return c, fmt.Errorf("cluster: fault plan crashes node %d of a %d-node fleet", nc.Node, c.Nodes)
			}
			crashed[nc.Node] = true
		}
		if len(crashed) >= c.Nodes {
			return c, fmt.Errorf("cluster: fault plan crashes all %d nodes; at least one must survive", c.Nodes)
		}
	}
	return c, nil
}

// DeploymentResult is one deployment's slice of the fleet outcome: the
// single-pool statistics (latency samples, completions, cold starts and
// their phase attribution, the metrics registry) plus what only a fleet
// measures.
type DeploymentResult struct {
	// Name labels the deployment.
	Name string
	*serverless.Result
	// ColdStart samples each launch's end-to-end provisioning latency
	// (artifact fetch + loading, overlap-aware).
	ColdStart *metrics.Sample
	// SLOMet counts completed requests that met every configured
	// deadline (0 when Config.SLO is zero).
	SLOMet int
}

// NodeResult is one node's share of the fleet outcome.
type NodeResult struct {
	// ID is the node index.
	ID int
	// Launches counts instances placed on the node.
	Launches int
	// Crashed reports whether a fault plan killed the node mid-run.
	Crashed bool
	// Cache is the node's tiered-cache traffic.
	Cache artifactcache.Stats
}

// Result aggregates one fleet simulation.
type Result struct {
	// Config echoes the normalized configuration the run used.
	Config Config
	// PerDeployment holds each deployment's statistics, in
	// configuration order.
	PerDeployment []*DeploymentResult
	// PerNode holds each node's placement and cache statistics.
	PerNode []NodeResult
	// Cache aggregates every node's cache traffic.
	Cache artifactcache.Stats
	// Metrics is the cluster-wide registry the node caches count into
	// (cache_ram_hits, cache_misses, …).
	Metrics *obs.Registry
	// TotalColdStarts counts launches across deployments.
	TotalColdStarts int
	// Degraded counts launches that survived an injected fault by
	// degrading to the vanilla cold-start stages.
	Degraded int
	// Requeued counts requests re-placed after their node crashed.
	Requeued int
	// NodeCrashes counts nodes the fault plan killed.
	NodeCrashes int
	// GPUSeconds is total provisioned GPU time across the fleet.
	GPUSeconds float64
	// NodeSeconds is the fleet's cost: the summed time each node spent
	// hosting at least one instance (nodes idle end to end cost
	// nothing). Always computed; it is the denominator predictive
	// autoscaling is judged against.
	NodeSeconds float64
	// SLOMet counts completed requests fleet-wide that met every
	// configured deadline (0 when Config.SLO is zero).
	SLOMet int
	// Completed counts finished requests fleet-wide.
	Completed int
	// Makespan spans simulation start to the last completion.
	Makespan time.Duration
}

// SLOAttainment returns the fleet-wide fraction of completed requests
// that met every configured deadline (0 when nothing completed).
func (r *Result) SLOAttainment() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.SLOMet) / float64(r.Completed)
}

// Run simulates the fleet: it builds one node per Config.Nodes, each
// fronting the shared artifact registry with its tiered cache, and runs
// the deployments on them through the serverless event loop.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	registry := artifactcache.NewRegistry(cfg.Network)
	reg := obs.NewRegistry()
	nodes := make([]serverless.Node, cfg.Nodes)
	for i := range nodes {
		cache := artifactcache.NewNodeCache(fmt.Sprintf("node%d", i), cfg.Cache, registry)
		cache.SetObs(cfg.Tracer, reg)
		nodes[i] = serverless.Node{GPUs: cfg.GPUsPerNode, Cache: cache}
	}
	deps := make([]serverless.Deployment, len(cfg.Deployments))
	for di, dep := range cfg.Deployments {
		if dep.Name == "" {
			dep.Name = fmt.Sprintf("deployment-%d", di)
		}
		dcfg := &dep.Config
		dcfg.RetainPerRequest = cfg.RetainPerRequest
		dcfg.Tracer = cfg.Tracer
		// The node caches charge each launch's artifact fetch explicitly
		// (tier- and dedup-dependent), so the profile must not also bake
		// the storage read into the restore stage. Tensor-parallel
		// instances materialize per-rank artifacts inside the engine and
		// bypass the cache.
		fetches := dcfg.Strategy.NeedsArtifact() && dcfg.TPDegree <= 1
		dcfg.Cache.ArtifactPreloaded = fetches
		if fetches {
			size, err := dcfg.Cache.ColdFetchBytes()
			if err != nil {
				return nil, fmt.Errorf("cluster: encoding %s artifact: %w", dep.Name, err)
			}
			registry.RegisterSized(dcfg.ArtifactCacheKey(), size)
			if tmpl := dcfg.Cache.Template; tmpl != nil {
				// The shared template registers once under its own ID
				// (unsuffixed — every strategy and sibling model resolves
				// the same object); re-registration by later deployments
				// is idempotent.
				registry.RegisterSized(tmpl.ID(), dcfg.Cache.EncodedTemplateBytes())
			}
		}
		deps[di] = dep
	}
	if cfg.PrewarmSSD {
		// Sorted keys: Preload order must not depend on map iteration.
		keys := registry.Names()
		for _, n := range nodes {
			for _, k := range keys {
				if err := n.Cache.Preload(k); err != nil {
					return nil, err
				}
			}
		}
	}
	res, err := serverless.RunFleet(serverless.Fleet{
		Nodes:          nodes,
		Deployments:    deps,
		Arrivals:       cfg.Arrivals,
		Faults:         cfg.Faults,
		Autoscaler:     cfg.Autoscaler,
		Router:         cfg.Router,
		SLO:            cfg.SLO,
		LocalityWeight: cfg.LocalityWeight,
		Seed:           cfg.Seed,
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}

	out := &Result{Config: cfg, Metrics: reg, Makespan: res.Makespan,
		GPUSeconds: res.GPUSeconds, TotalColdStarts: res.TotalColdStarts}
	for di, r := range res.PerDeployment {
		dr := &DeploymentResult{Name: deps[di].Name, Result: r, ColdStart: r.Metrics.Sample("cold_start")}
		if !cfg.SLO.Zero() {
			dr.SLOMet = int(r.Metrics.Counter("slo_met").Value())
		}
		out.PerDeployment = append(out.PerDeployment, dr)
		out.Completed += dr.Completed
		out.Degraded += dr.Degraded
		out.SLOMet += dr.SLOMet
	}
	out.Requeued = int(reg.Counter("requeued").Value())
	out.NodeCrashes = int(reg.Counter("node_crashes").Value())
	for i, n := range res.Nodes {
		st := nodes[i].Cache.Stats()
		out.PerNode = append(out.PerNode, NodeResult{ID: i, Launches: n.Launches, Crashed: n.Crashed, Cache: st})
		out.Cache.Add(st)
		out.NodeSeconds += n.Up.Seconds()
	}
	return out, nil
}

// ZipfDeployments splits one Poisson arrival process across the given
// deployments with Zipf-distributed popularity (skew s > 1; rank 0 is
// the most popular). The returned slices preserve each deployment's
// own arrival ordering and re-number per-deployment request IDs.
func ZipfDeployments(deps []serverless.Deployment, trace []workload.Request, seed int64, s float64) ([]serverless.Deployment, error) {
	if len(deps) == 0 {
		return nil, fmt.Errorf("cluster: no deployments to split across")
	}
	if s <= 1 {
		return nil, fmt.Errorf("cluster: Zipf skew must be > 1, got %g", s)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(len(deps)-1))
	if zipf == nil {
		return nil, fmt.Errorf("cluster: invalid Zipf parameters (s=%g, n=%d)", s, len(deps))
	}
	out := make([]serverless.Deployment, len(deps))
	copy(out, deps)
	for i := range out {
		out[i].Requests = nil
	}
	for _, r := range trace {
		di := int(zipf.Uint64())
		r.ID = len(out[di].Requests)
		out[di].Requests = append(out[di].Requests, r)
	}
	for i := range out {
		if len(out[i].Requests) == 0 {
			// Every deployment needs at least one request or Run
			// rejects it; steal the tail of the busiest deployment.
			busiest := 0
			for j := range out {
				if len(out[j].Requests) > len(out[busiest].Requests) {
					busiest = j
				}
			}
			if len(out[busiest].Requests) < 2 {
				return nil, fmt.Errorf("cluster: trace too small to cover %d deployments", len(deps))
			}
			last := len(out[busiest].Requests) - 1
			r := out[busiest].Requests[last]
			out[busiest].Requests = out[busiest].Requests[:last]
			r.ID = 0
			out[i].Requests = []workload.Request{r}
		}
	}
	return out, nil
}

// sortedPhases lists a breakdown's phases sorted by name (rendering
// must not depend on first-charged order, which varies with workload).
func sortedPhases(b *obs.PhaseBreakdown) []string {
	phases := b.Phases()
	sort.Strings(phases)
	return phases
}
