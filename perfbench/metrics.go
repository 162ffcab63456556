package main

import (
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/experiments"
)

// metricDef names one reported metric. Every workload emits every
// metric of its kind; a per-layer metric of a layer the workload does
// not exercise reads 0.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the host-time metrics every workload defines: the
// simulator's cost to its user. An operation is a simulated request on
// fleet-* and an exhibit on paper-all.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// coldStartStages are the stage names ColdStartPhases can attribute
// virtual time to in the cluster simulator.
var coldStartStages = []string{
	engine.StageRuntimeInit, engine.StageArtifactFetch, engine.StageStructInit,
	engine.StageWeights, engine.StageTokenizer, engine.StageKVInit,
	engine.StageCapture, engine.StageRestoreFailed,
}

// perLayer lists the traced run's metrics in report order.
func perLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{name, unit, better}) }
	// The modelled system's own results, in virtual time.
	add("ttft_p50_s", "s", "lower")
	add("ttft_p99_s", "s", "lower")
	add("tpot_p99_s", "s", "lower")
	add("slo_attainment", "ratio", "higher")
	add("node_seconds", "s", "lower")
	add("cold_start_p50_s", "s", "lower")
	add("failed_frac", "ratio", "lower")
	add("sim.drain_s", "s", "lower")
	for _, id := range experiments.IDs() {
		add("exhibit."+id+".s", "s", "lower")
	}
	add("engine.offline.calls", "count", "lower")
	add("engine.offline.s", "s", "lower")
	add("engine.offline.allocs", "count", "lower")
	add("engine.templates.s", "s", "lower")
	add("engine.coldstart.medusa.ms", "ms", "lower")
	add("engine.coldstart.vllm.ms", "ms", "lower")
	add("engine.coldstart.allocs", "count", "lower")
	add("medusa.encode.mb_per_s", "MiB/s", "higher")
	add("medusa.decode.mb_per_s", "MiB/s", "higher")
	add("medusa.encode_delta.s", "s", "lower")
	add("serverless.profile.calls", "count", "lower")
	add("serverless.profile.s", "s", "lower")
	add("sim.run.s", "s", "lower")
	add("sim.ns_per_req", "ns", "lower")
	add("sim.iterations", "count", "lower")
	add("sim.follow_ups", "count", "higher")
	add("workload.arrivals", "count", "higher")
	add("workload.ns_per_arrival", "ns", "lower")
	add("cache.hit_rate", "ratio", "higher")
	add("cache.ram_hits", "count", "higher")
	add("cache.ssd_hits", "count", "higher")
	add("cache.misses", "count", "lower")
	add("cache.coalesced", "count", "higher")
	add("cache.evictions", "count", "lower")
	add("cache.bytes_fetched_mb", "MiB", "lower")
	add("cache.retries", "count", "lower")
	add("cache.timed_out", "count", "lower")
	for _, s := range coldStartStages {
		add("coldstart.phase."+s+".s", "s", "lower")
	}
	add("sched.preemptions", "count", "lower")
	add("autoscale.cold_starts", "count", "lower")
	add("autoscale.gpu_seconds", "s", "lower")
	add("router.launch_spread", "ratio", "lower")
	add("faults.degraded", "count", "lower")
	add("faults.requeued", "count", "lower")
	add("gc.cycles", "count", "lower")
	add("gc.cpu_frac", "ratio", "lower")
	add("gc.pause_s", "s", "lower")
	for _, mod := range append(cpuModules, "other") {
		add("cpu."+mod+".frac", "ratio", "lower")
	}
	add("trace.wall_s", "s", "lower")
	add("trace.untraced_wall_s", "s", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return m
}

// metricSet collects one run's values for a fixed catalogue: every
// name starts at 0, and setting a name outside the catalogue panics, so
// the emitted set is exactly the catalogue.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: defs, values: map[string]float64{}}
	for _, d := range defs {
		ms.values[d.Name] = 0
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	if _, ok := ms.values[name]; !ok {
		panic("perfbench: metric " + name + " is not in the catalogue")
	}
	ms.values[name] = v
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (ms *metricSet) json() map[string]metricValue {
	out := make(map[string]metricValue, len(ms.defs))
	for _, d := range ms.defs {
		out[d.Name] = metricValue{ms.values[d.Name], d.Unit}
	}
	return out
}
