// Package cliconfig declares medusa-simulate's flag surface exactly
// once. Its single-pool and cluster modes historically declared ~35
// overlapping flags across two files; this package owns each knob's
// name, default and help text, plus the flag-to-config translation.
//
// Register binds the surface onto a FlagSet and returns the Values the
// flags write into. The builder methods translate parsed values into
// the config sub-structs the simulators consume.
package cliconfig

import (
	"flag"
	"strings"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

// Values holds every shared simulator option after flag parsing. The
// zero value is NOT the default configuration — defaults live in the
// flag declarations, so Register is the only way
// to obtain canonically defaulted Values.
type Values struct {
	// Model is the served model's name (single-pool mode and the
	// cluster default when -models is empty).
	Model string
	// Strategy names the cold-start loading strategy.
	Strategy string
	// RPS is the Poisson arrival rate.
	RPS float64
	// DurationSec is the trace length in seconds.
	DurationSec int
	// MeanOutput is the mean output tokens per request (0 = ShareGPT
	// default).
	MeanOutput int
	// MaxOutput clamps output tokens (0 = default).
	MaxOutput int
	// Seed seeds the trace generator (replications offset it).
	Seed int64
	// Followup is the probability of a conversational follow-up turn.
	Followup float64
	// Think is the user think time before a follow-up.
	Think time.Duration

	// GPUs bounds the single-pool simulator's GPU count.
	GPUs int
	// Prewarm provisions instances ready at time zero.
	Prewarm int
	// Idle retires instances idle for this long (0 disables).
	Idle time.Duration

	// BatchTokens enables iteration-level continuous batching with
	// this per-iteration token budget (0 keeps the legacy
	// whole-request admission path).
	BatchTokens int
	// KVBlocks sizes the paged KV pool per instance (0 derives it
	// from the profile's measured KV capacity).
	KVBlocks int
	// ChunkedPrefill splits long prompts across iterations.
	ChunkedPrefill bool

	// Nodes switches to the multi-node fleet simulator when > 0.
	Nodes int
	// GPUsPerNode bounds instances per fleet node.
	GPUsPerNode int
	// CachePolicy names the artifact-cache eviction policy.
	CachePolicy string
	// CacheRAMMiB sizes each node's RAM cache tier.
	CacheRAMMiB int
	// CacheSSDMiB sizes each node's SSD cache tier.
	CacheSSDMiB int
	// Locality weights artifact locality against load balance in
	// placement.
	Locality float64
	// PrewarmSSD pre-pulls every artifact onto every node's SSD tier.
	PrewarmSSD bool
	// Models lists fleet models, comma-separated ("" = just Model).
	Models string
	// Zipf is the popularity skew across Models (must be > 1).
	Zipf float64
	// Stream streams arrivals instead of materializing the trace.
	Stream bool
	// Retain keeps every per-request latency observation.
	Retain bool

	// SLOTTFT is the time-to-first-token deadline (0 disables SLO
	// accounting together with SLOTPOT).
	SLOTTFT time.Duration
	// SLOTPOT is the time-per-output-token deadline (batched mode).
	SLOTPOT time.Duration
	// Autoscale names the fleet autoscaling policy.
	Autoscale string
	// Router names the fleet dispatch policy.
	Router string
	// Diurnal switches the fleet trace to phase-staggered diurnal
	// multi-tenant sources (sinusoidal envelope + Markov bursts) with
	// this day/night period (0 keeps the flat Poisson/Zipf trace).
	Diurnal time.Duration
}

// Register binds the flag surface onto fs and returns the Values the
// parsed flags populate.
func Register(fs *flag.FlagSet) *Values {
	v := &Values{}
	fs.StringVar(&v.Model, "model", "Qwen1.5-4B", "model name")
	fs.StringVar(&v.Strategy, "strategy", "medusa", "vllm | async | nograph | medusa | checkpoint | deferred")
	fs.Float64Var(&v.RPS, "rps", 10, "mean request rate (Poisson)")
	fs.IntVar(&v.DurationSec, "duration", 60, "trace duration in seconds")
	fs.IntVar(&v.MeanOutput, "mean-output", 0, "mean output tokens per request (0 = ShareGPT default)")
	fs.IntVar(&v.MaxOutput, "max-output", 0, "output token clamp (0 = default)")
	fs.Int64Var(&v.Seed, "seed", 90125, "trace seed")
	fs.Float64Var(&v.Followup, "followup", 0, "probability of a conversational follow-up turn (0 disables)")
	fs.DurationVar(&v.Think, "think", 8*time.Second, "user think time before a follow-up")
	fs.IntVar(&v.GPUs, "gpus", 4, "GPU count")
	fs.IntVar(&v.Prewarm, "prewarm", 0, "instances pre-warmed at time zero")
	fs.DurationVar(&v.Idle, "idle", 0, "instance idle timeout (0 disables)")
	fs.IntVar(&v.BatchTokens, "batch-tokens", 0, "per-iteration token budget; > 0 enables iteration-level continuous batching")
	fs.IntVar(&v.KVBlocks, "kv-blocks", 0, "paged KV pool size per instance in 16-token blocks (0 = derive from the instance profile)")
	fs.BoolVar(&v.ChunkedPrefill, "chunked-prefill", false, "split long prompts into budget-sized chunks across iterations")
	fs.IntVar(&v.Nodes, "nodes", 0, "fleet size; > 0 runs the multi-node simulator with tiered artifact caches")
	fs.IntVar(&v.GPUsPerNode, "gpus-per-node", 4, "GPUs per node (cluster mode)")
	fs.StringVar(&v.CachePolicy, "cache-policy", "lru", "artifact cache eviction policy: lru | lfu | costaware")
	fs.IntVar(&v.CacheRAMMiB, "cache-ram", 4096, "per-node RAM cache tier size in MiB")
	fs.IntVar(&v.CacheSSDMiB, "cache-ssd", 16384, "per-node SSD cache tier size in MiB")
	fs.Float64Var(&v.Locality, "locality", cluster.DefaultLocalityWeight, "placement weight for artifact locality vs load balance (0 = pure load balancing)")
	fs.BoolVar(&v.PrewarmSSD, "prewarm-ssd", false, "pre-pull every artifact onto every node's SSD tier before the trace")
	fs.StringVar(&v.Models, "models", "", "comma-separated model list for a multi-model fleet (cluster mode; default: -model)")
	fs.Float64Var(&v.Zipf, "zipf", 1.2, "Zipf popularity skew across -models (must be > 1)")
	fs.BoolVar(&v.Stream, "stream", false, "stream arrivals instead of materializing the trace — memory stays O(active requests), enabling 10M+ request runs (cluster mode)")
	fs.BoolVar(&v.Retain, "retain", false, "retain every per-request latency observation for exact quantiles (O(requests) memory; default uses a bounded deterministic reservoir)")
	fs.DurationVar(&v.SLOTTFT, "slo-ttft", 0, "time-to-first-token deadline; with -slo-tpot 0 disables SLO accounting (cluster mode)")
	fs.DurationVar(&v.SLOTPOT, "slo-tpot", 0, "time-per-output-token deadline, checked in batched execution mode (cluster mode)")
	fs.StringVar(&v.Autoscale, "autoscale", "reactive", "fleet autoscaling policy: reactive | predictive")
	fs.StringVar(&v.Router, "router", "fifo", "fleet dispatch policy: fifo | leastloaded | score")
	fs.DurationVar(&v.Diurnal, "diurnal", 0, "day/night cycle period; > 0 streams phase-staggered diurnal multi-tenant arrivals instead of the flat trace (cluster mode)")
	return v
}

// SLO assembles the per-request deadline sub-config (zero when neither
// deadline flag was set, which disables SLO accounting).
func (v *Values) SLO() serverless.SLO {
	return serverless.SLO{TTFT: v.SLOTTFT, TPOT: v.SLOTPOT}
}

// AutoscalePolicy parses the -autoscale flag into a policy instance.
// Each call returns a fresh instance: stateful policies must not be
// shared across simulation runs.
func (v *Values) AutoscalePolicy() (autoscale.Policy, error) {
	return autoscale.Parse(v.Autoscale)
}

// RouterPolicy parses the -router flag into a dispatch policy (nil for
// "fifo", the legacy launch-order walk).
func (v *Values) RouterPolicy() (router.Policy, error) {
	return router.Parse(v.Router)
}

// DiurnalConfig assembles the diurnal multi-tenant generator's base
// configuration from the trace flags: the fleet splits -rps across
// tenants with a -diurnal-period sinusoid and default burst modulation
// (4× bursts, 5s mean burst, 30s mean calm — the 10–20× 30-second
// fluctuation shape the paper cites, toned to the envelope).
func (v *Values) DiurnalConfig() workload.DiurnalConfig {
	return workload.DiurnalConfig{
		Seed:        v.Seed,
		BaseRPS:     v.RPS,
		Amplitude:   0.6,
		Period:      v.Diurnal,
		BurstFactor: 4,
		MeanBurst:   5 * time.Second,
		MeanCalm:    30 * time.Second,
		Duration:    time.Duration(v.DurationSec) * time.Second,
		MeanOutput:  v.MeanOutput,
		MaxOutput:   v.MaxOutput,
	}
}

// TraceConfig assembles the workload generator's configuration.
func (v *Values) TraceConfig() workload.TraceConfig {
	return workload.TraceConfig{
		Seed:       v.Seed,
		RPS:        v.RPS,
		Duration:   time.Duration(v.DurationSec) * time.Second,
		MeanOutput: v.MeanOutput,
		MaxOutput:  v.MaxOutput,
	}
}

// BatchParams assembles the continuous-batching parameters (zero when
// -batch-tokens was not set, which keeps the legacy admission path).
func (v *Values) BatchParams() sched.Params {
	return sched.Params{
		BatchTokens:    v.BatchTokens,
		KVBlocks:       v.KVBlocks,
		ChunkedPrefill: v.ChunkedPrefill,
	}
}

// SchedulerConfig assembles the serving-policy sub-config.
func (v *Values) SchedulerConfig() serverless.Scheduler {
	return serverless.Scheduler{
		Prewarm:     v.Prewarm,
		IdleTimeout: v.Idle,
		Batch:       v.BatchParams(),
	}
}

// WorkloadConfig assembles the workload-shape sub-config (follow-up
// conversations when -followup > 0).
func (v *Values) WorkloadConfig() serverless.Workload {
	if v.Followup <= 0 {
		return serverless.Workload{}
	}
	return serverless.Workload{FollowUp: &serverless.FollowUpModel{
		Probability: v.Followup,
		ThinkTime:   v.Think,
		MaxTurns:    6,
	}}
}

// CacheParams assembles the per-node artifact-cache parameters,
// parsing the eviction policy name.
func (v *Values) CacheParams() (artifactcache.Params, error) {
	policy, err := artifactcache.ParsePolicy(v.CachePolicy)
	if err != nil {
		return artifactcache.Params{}, err
	}
	params := artifactcache.DefaultParams()
	params.RAMBytes = uint64(v.CacheRAMMiB) << 20
	params.SSDBytes = uint64(v.CacheSSDMiB) << 20
	params.Policy = policy
	return params, nil
}

// ModelNames resolves the fleet's model list: -models split on commas
// with whitespace trimmed, or just -model when -models is empty.
func (v *Values) ModelNames() []string {
	if v.Models == "" {
		return []string{v.Model}
	}
	names := strings.Split(v.Models, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}
