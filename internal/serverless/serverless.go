// Package serverless simulates the serverless inference cluster of the
// paper's §7.5: requests arrive at a router, instances scale from zero
// with strategy-dependent cold-start latency (warm containers eliminate
// runtime init, so cold start equals the loading phase), and each
// instance serves with iteration-level continuous batching. The
// discrete-event simulation reproduces the queueing dynamics behind
// Figures 10 and 11: cold starts inflate time-to-first-token tails.
//
// Its event loop is the only one in the repository. RunMulti runs the
// paper's GPU pool as a one-node fleet without an artifact cache;
// RunFleet takes any set of nodes, which is how internal/cluster
// simulates multi-node fleets with tiered artifact caches.
package serverless

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// ConfigError reports one rejected configuration field. Callers that
// need to distinguish validation failures from simulation failures can
// errors.As on it and read the field path.
type ConfigError struct {
	// Field is the offending field's path within the configuration,
	// e.g. "Scheduler.MaxBatch" or "Workload.FollowUp.Probability".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("serverless: invalid %s: %s", e.Field, e.Reason)
}

// Workload groups the assumptions about the request stream's shape —
// everything about traffic that is not the arrival trace itself.
type Workload struct {
	// FollowUp, when set, turns the trace into multi-turn
	// conversations: after a request completes, the "user" reads the
	// answer and may send a follow-up whose prompt includes the
	// conversation so far — ShareGPT's actual shape.
	FollowUp *FollowUpModel
}

// Validate checks the workload sub-config, naming fields under the
// "Workload." path.
func (w Workload) Validate() error {
	if fu := w.FollowUp; fu != nil {
		if fu.Probability < 0 || fu.Probability > 1 {
			return &ConfigError{Field: "Workload.FollowUp.Probability",
				Reason: fmt.Sprintf("must be in [0,1], got %g", fu.Probability)}
		}
		if fu.ThinkTime < 0 {
			return &ConfigError{Field: "Workload.FollowUp.ThinkTime",
				Reason: fmt.Sprintf("must be ≥ 0, got %v", fu.ThinkTime)}
		}
	}
	return nil
}

// Scheduler groups the serving policy: per-instance admission, the
// autoscaling rules that add and retire instances, and the optional
// iteration-level batched execution mode.
type Scheduler struct {
	// MaxBatch bounds per-instance concurrency (vLLM max_num_seqs).
	MaxBatch int
	// InstanceTarget is the outstanding-request count one instance is
	// expected to absorb before the autoscaler adds another.
	InstanceTarget int
	// IdleTimeout retires instances with no work (0 disables).
	IdleTimeout time.Duration
	// Prewarm provisions this many instances ready at time zero (no
	// cold start charged), modelling an already-running deployment —
	// Figure 11's setting, where only scale-out pays cold starts.
	Prewarm int
	// Batch selects iteration-level continuous batching with paged KV
	// and chunked prefill (internal/sched) when Batch.BatchTokens > 0.
	// The zero value keeps the legacy whole-request admission path,
	// byte-identical to before the scheduler existed. Batch.KVBlocks 0
	// derives the pool from the instance profile's measured KV
	// capacity; Batch.MaxSeqs 0 inherits MaxBatch.
	Batch sched.Params
}

// Validate checks the scheduler sub-config, naming fields under the
// "Scheduler." path.
func (s Scheduler) Validate() error {
	switch {
	case s.MaxBatch < 0:
		return &ConfigError{Field: "Scheduler.MaxBatch", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.MaxBatch)}
	case s.InstanceTarget < 0:
		return &ConfigError{Field: "Scheduler.InstanceTarget", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.InstanceTarget)}
	case s.IdleTimeout < 0:
		return &ConfigError{Field: "Scheduler.IdleTimeout", Reason: fmt.Sprintf("must be ≥ 0, got %v", s.IdleTimeout)}
	case s.Prewarm < 0:
		return &ConfigError{Field: "Scheduler.Prewarm", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.Prewarm)}
	case s.Batch.BatchTokens < 0:
		return &ConfigError{Field: "Scheduler.Batch.BatchTokens", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.Batch.BatchTokens)}
	case s.Batch.KVBlocks < 0:
		return &ConfigError{Field: "Scheduler.Batch.KVBlocks", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.Batch.KVBlocks)}
	case s.Batch.MaxSeqs < 0:
		return &ConfigError{Field: "Scheduler.Batch.MaxSeqs", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.Batch.MaxSeqs)}
	}
	return nil
}

// CacheSpec groups the materialization inputs: the Medusa artifact and
// how it reaches the instance.
type CacheSpec struct {
	// Artifact is required for strategies whose descriptor reports
	// NeedsArtifact.
	Artifact *medusa.Artifact
	// ArtifactBytes is the encoded artifact's size (what storage and
	// cache transfers charge); zero means "encode to measure".
	ArtifactBytes uint64
	// ArtifactPreloaded marks the encoded artifact as already in host
	// memory when loading begins. The cluster front end sets it: its
	// node caches charge the artifact fetch explicitly per launch
	// (tier- and dedup-dependent), so the template profile must not
	// also charge the storage read inside the restore stage.
	ArtifactPreloaded bool
	// Template, when set, marks the deployment's artifact as
	// template-factored (wire format v3): the registry holds the shared
	// per-architecture template plus this model's small delta, and cold
	// fetches move delta bytes instead of the full artifact. The cluster
	// simulator registers the template once under its ID and fetches it
	// alongside the delta (cached independently, shared across sibling
	// deployments); ArtifactBytes then means the delta's encoded size.
	Template *medusa.Template
}

// ColdFetchBytes is the byte count one cold start must move for the
// artifact: ArtifactBytes when declared, otherwise measured by
// encoding — against the template (v3 delta) when template-factored,
// self-contained (v2) otherwise.
func (c CacheSpec) ColdFetchBytes() (uint64, error) {
	if c.ArtifactBytes != 0 {
		return c.ArtifactBytes, nil
	}
	if c.Artifact == nil {
		return 0, nil
	}
	var enc []byte
	var err error
	if c.Template != nil {
		enc, err = c.Artifact.EncodeDelta(c.Template)
	} else {
		enc, err = c.Artifact.Encode()
	}
	if err != nil {
		return 0, err
	}
	return uint64(len(enc)), nil
}

// EncodedTemplateBytes is the encoded template's size; zero without a
// template.
func (c CacheSpec) EncodedTemplateBytes() uint64 {
	if c.Template == nil {
		return 0
	}
	return uint64(len(c.Template.Encode()))
}

// SLO sets per-request latency deadlines. The zero value disables SLO
// accounting entirely; with either deadline set, the cluster simulator
// tracks the fraction of completed requests meeting every configured
// deadline (SLO attainment) as a first-class result.
type SLO struct {
	// TTFT is the time-to-first-token deadline (0 = unconstrained).
	TTFT time.Duration
	// TPOT is the time-per-output-token deadline, checked against each
	// completed request's mean inter-token gap. Only batched execution
	// mode measures TPOT; the legacy path ignores this deadline.
	TPOT time.Duration
}

// Zero reports whether no deadline is configured.
func (s SLO) Zero() bool { return s == SLO{} }

// Validate checks the SLO sub-config, naming fields under the "SLO."
// path.
func (s SLO) Validate() error {
	if s.TTFT < 0 {
		return &ConfigError{Field: "SLO.TTFT", Reason: fmt.Sprintf("must be ≥ 0, got %v", s.TTFT)}
	}
	if s.TPOT < 0 {
		return &ConfigError{Field: "SLO.TPOT", Reason: fmt.Sprintf("must be ≥ 0, got %v", s.TPOT)}
	}
	return nil
}

// FaultSpec groups fault injection. The sub-config exists so the
// serverless and cluster configurations share one validation path and
// one field-path namespace for fault options.
type FaultSpec struct {
	// Plan, when set to a nonzero plan, injects deterministic faults
	// into artifact-based launches: SSD read errors (retried with
	// backoff, then degrade), artifact corruption and restore-validation
	// mismatches (degrade to the vanilla cold-start stages). The
	// single pool has no registry or nodes, so RunMulti ignores
	// RegistryTimeout, TemplateMissing and NodeCrashes entries; the
	// cluster simulator exercises them. Nil or a zero plan changes
	// nothing.
	Plan *faults.Plan
}

// Validate checks the fault sub-config, naming fields under the
// "Faults." path.
func (f FaultSpec) Validate() error {
	if f.Plan != nil {
		if err := f.Plan.Validate(); err != nil {
			return &ConfigError{Field: "Faults.Plan", Reason: err.Error()}
		}
	}
	return nil
}

// Config parameterizes one cluster simulation. The scalar identity of
// the deployment (model, strategy, resources, seed) lives at the top
// level; policy knobs compose from the Workload, Scheduler, Cache and
// Faults sub-configs, each with its own Validate under one shared
// field-path namespace.
type Config struct {
	// Model is the served model.
	Model model.Config
	// Strategy is the cold-start loading strategy.
	Strategy engine.Strategy
	// Store holds weights and artifacts.
	Store *storage.Store
	// NumGPUs bounds concurrent instances (the paper's testbed has 4).
	NumGPUs int
	// TPDegree shards each instance tensor-parallel across this many
	// GPUs (§8 extension). An instance then occupies TPDegree GPUs, so
	// at most NumGPUs/TPDegree instances run concurrently. 0 or 1 means
	// single-GPU instances.
	TPDegree int
	// Seed namespaces the profile instance's address space and the
	// follow-up sampling.
	Seed int64
	// RetainPerRequest keeps every per-request observation in the
	// deployment's latency samples instead of the default bounded
	// deterministic reservoir. Small runs are exact either way (the
	// reservoir only engages past metrics.DefaultReservoir observations
	// per sample); opt in when a large run needs exact quantiles and the
	// memory to hold them is acceptable.
	RetainPerRequest bool
	// Tracer, when set, records the deployment's spans: per-instance
	// cold starts with phase children, per-iteration serving spans, and
	// per-request queueing. All timestamps are simulation-virtual.
	Tracer *obs.Tracer
	// Workload describes the request stream's shape.
	Workload Workload
	// Scheduler is the serving and autoscaling policy.
	Scheduler Scheduler
	// Cache is the artifact materialization input.
	Cache CacheSpec
	// Faults is the fault-injection policy.
	Faults FaultSpec
	// Profiles, when set, shares cold-start profiles across every run
	// configured with it: each distinct profile input is cold-started
	// once and later runs reuse its measured costs (see ProfileCache).
	// Nil builds each run's profiles for that run alone.
	Profiles *ProfileCache
}

// Validate checks the configuration's invariants as-is, without
// applying defaults, and returns a *ConfigError naming the first
// offending field by its sub-config path. The zero values Validate
// accepts are the ones withDefaults later fills in.
func (c Config) Validate() error {
	switch {
	case c.NumGPUs < 0:
		return &ConfigError{Field: "NumGPUs", Reason: fmt.Sprintf("must be ≥ 0, got %d", c.NumGPUs)}
	case c.TPDegree < 0:
		return &ConfigError{Field: "TPDegree", Reason: fmt.Sprintf("must be ≥ 0, got %d", c.TPDegree)}
	}
	if err := c.Scheduler.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if !c.Strategy.Valid() {
		return &ConfigError{Field: "Strategy", Reason: fmt.Sprintf("unknown strategy %d", int(c.Strategy))}
	}
	if c.NumGPUs > 0 && c.TPDegree > c.NumGPUs {
		return &ConfigError{Field: "TPDegree",
			Reason: fmt.Sprintf("TP degree %d exceeds %d GPUs", c.TPDegree, c.NumGPUs)}
	}
	// Tensor-parallel instances materialize per-rank artifacts inside
	// engine.TPColdStart; only single-GPU artifact strategies need one
	// up front.
	if c.Strategy.NeedsArtifact() && c.Cache.Artifact == nil && c.TPDegree <= 1 {
		return &ConfigError{Field: "Cache.Artifact",
			Reason: fmt.Sprintf("%v strategy requires an artifact", c.Strategy)}
	}
	return nil
}

// FollowUpModel parameterizes conversational follow-up turns.
type FollowUpModel struct {
	// Probability of a follow-up after each completed turn.
	Probability float64
	// ThinkTime is the user's reading/typing delay before the
	// follow-up arrives.
	ThinkTime time.Duration
	// MaxTurns caps a conversation's total turns (≥1; the initial
	// request counts as turn 1).
	MaxTurns int
	// NewTokens is the fresh user input appended to the accumulated
	// context on each follow-up.
	NewTokens int
}

// withDefaults validates the raw configuration, fills zero fields with
// the paper's defaults, and re-validates the result. Any error is a
// *ConfigError.
func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.NumGPUs == 0 {
		c.NumGPUs = 4
	}
	if c.TPDegree < 1 {
		c.TPDegree = 1
	}
	if c.Scheduler.MaxBatch == 0 {
		c.Scheduler.MaxBatch = model.MaxCaptureBatch()
	}
	if c.Scheduler.InstanceTarget == 0 {
		c.Scheduler.InstanceTarget = 128
	}
	if c.Scheduler.Batch.Enabled() && c.Scheduler.Batch.MaxSeqs == 0 {
		c.Scheduler.Batch.MaxSeqs = c.Scheduler.MaxBatch
	}
	if c.Store == nil {
		c.Store = storage.NewStore(storage.DefaultArray())
	}
	return c, c.Validate()
}

// Result summarizes one simulation.
type Result struct {
	// TTFT is the time-to-first-token sample (the paper's headline
	// metric, reported at p99).
	TTFT *metrics.Sample
	// E2E is end-to-end request latency.
	E2E *metrics.Sample
	// TPOT is the time-per-output-token sample — per completed request,
	// the mean inter-token gap (last token minus first token over
	// output−1 tokens). It is recorded only in batched execution mode
	// (Scheduler.Batch enabled), where per-token completion events
	// exist; nil otherwise.
	TPOT *metrics.Sample
	// Preemptions counts scheduler evictions under KV pressure
	// (batched execution mode only).
	Preemptions int
	// Completed counts finished requests.
	Completed int
	// Makespan is arrival of the first request to completion of the
	// last.
	Makespan time.Duration
	// Throughput is completed requests per second of makespan.
	Throughput float64
	// ColdStarts counts instance launches.
	ColdStarts int
	// Degraded counts launches that survived an injected fault by
	// falling back to the vanilla cold-start stages (0 without a fault
	// plan).
	Degraded int
	// PeakInstances is the maximum concurrently provisioned instances.
	PeakInstances int
	// ColdStartPhases is the exclusive per-phase attribution of every
	// cold start this deployment paid (artifact fetch, restore_failed,
	// the strategy's loading stages, overlap gaps). By construction its
	// Total equals ColdStartTotal exactly.
	ColdStartPhases *obs.PhaseBreakdown
	// ColdStartTotal sums the end-to-end durations of all cold starts.
	ColdStartTotal time.Duration
	// Metrics is the deployment's counter/gauge/sample registry; TTFT
	// and E2E above alias its "ttft" and "e2e" samples.
	Metrics *obs.Registry
}

// Deployment is one model's slice of a shared cluster.
type Deployment struct {
	// Name labels the deployment in results.
	Name string
	// Config carries the model, strategy and per-deployment policies.
	// NumGPUs is cluster-wide and taken from MultiConfig instead.
	Config Config
	// Requests is the deployment's arrival trace.
	Requests []workload.Request
	// Source, when set, streams the deployment's arrivals instead of
	// Requests — the scale path, under which the trace never exists in
	// memory at once. Requests in nondecreasing arrival order; IDs are
	// reassigned in cluster-wide delivery order.
	Source workload.Source
}

// MultiConfig shares one GPU pool among several deployments — the
// setting behind §2.4's observation that hot spares for every model
// type are unaffordable.
type MultiConfig struct {
	// NumGPUs is the shared pool size.
	NumGPUs int
	// Deployments are the co-located models.
	Deployments []Deployment
	// Arrivals, when set, supplies every deployment's traffic as one
	// pre-merged stream (nondecreasing arrival order, deployment indices
	// into Deployments); the per-deployment Requests/Source fields are
	// then ignored and request IDs are assigned in delivery order.
	Arrivals ArrivalSource
	// Faults applies one fault plan to every deployment's launches (see
	// FaultSpec for which sites the single-pool simulator honors).
	Faults FaultSpec
}

// MultiResult aggregates a shared-cluster simulation.
type MultiResult struct {
	// PerDeployment holds each deployment's latency statistics, in
	// configuration order.
	PerDeployment []*Result
	// TotalColdStarts counts instance launches across deployments.
	TotalColdStarts int
	// GPUSeconds is total provisioned GPU time (busy or idle) — the
	// cost side of the hot-spare trade-off.
	GPUSeconds float64
	// Makespan spans simulation start to the last completion.
	Makespan time.Duration
	// Nodes reports each node's placement and uptime, in node order (one
	// entry for the single pool).
	Nodes []NodeUsage
}

// RunMulti simulates several deployments contending for one GPU pool:
// a fleet of one cacheless node with the pool's GPUs, reactive
// autoscaling, launch-order dispatch and no SLO.
// The pool has no nodes to crash and no artifact registry, so the fault
// plan's node crashes are dropped here, and its registry and template
// sites never draw.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	return RunFleet(poolFleet(cfg))
}

// poolFleet builds the one-node fleet RunMulti runs.
func poolFleet(cfg MultiConfig) Fleet {
	if cfg.NumGPUs == 0 {
		cfg.NumGPUs = 4
	}
	faultSpec := cfg.Faults
	if p := faultSpec.Plan; p != nil && len(p.NodeCrashes) > 0 {
		plan := *p
		plan.NodeCrashes = nil
		faultSpec.Plan = &plan
	}
	return Fleet{
		Nodes:       []Node{{GPUs: cfg.NumGPUs}},
		Deployments: cfg.Deployments,
		Arrivals:    cfg.Arrivals,
		Faults:      faultSpec,
	}
}

// Run simulates serving one deployment's trace and returns its latency
// statistics.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serverless: empty trace")
	}
	multi, err := RunMulti(MultiConfig{
		NumGPUs:     cfg.NumGPUs,
		Deployments: []Deployment{{Name: cfg.Model.Name, Config: cfg, Requests: reqs}},
		Faults:      cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	return multi.PerDeployment[0], nil
}
