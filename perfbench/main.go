// Command perfbench is the repository's benchmark. It runs one workload
// in this process for at least --seconds of host time, checks that the
// simulator's outputs are correct, and prints every metric by name and
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end host-time metrics. With
// --trace 1 a separate traced run reports the per-layer metrics: spans
// around the benchmark's calls into each module's public functions, a
// CPU profile split by module, and the tracing overhead.
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload fleet-stream --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and the metric table.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/experiments"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// threads is the benchmark's GOMAXPROCS: the container the benchmark is
// specified for has two CPUs, and Go before 1.25 ignores CPU quotas.
const threads = 2

// bench is one workload: a set-up that builds its inputs and a pass
// that runs its timed phase once.
type bench interface {
	setup(seed int64, tr *tracer) error
	// pass runs the timed phase; inspect then checks and renders its
	// outcome outside the timed region.
	pass(tr *tracer) (inspect func() *passOut, err error)
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps() int
	// layers makes the traced calls into each layer's public functions
	// on the workload's deployments.
	layers(seed int64, tr *tracer) (encodedBytes int, err error)
	// notes are findings set-up reports without failing the run.
	notes() []string
}

// passOut is one pass's outcome.
type passOut struct {
	ops, attempted, failed int
	// render is the pass's canonical output; every pass of a run, traced
	// or not, must render identically.
	render string
	errs   []string
	fleet  *fleetPass
}

var workloads = map[string]func() bench{
	"paper-all":     func() bench { return &paperBench{dir: "results"} },
	"fleet-stream":  func() bench { return &fleetBench{w: fleetStream} },
	"fleet-batched": func() bench { return &fleetBench{w: fleetBatched} },
}

func main() {
	name := flag.String("workload", "", "workload: paper-all | fleet-stream | fleet-batched")
	seed := flag.Int64("seed", 1, "workload seed (fleet traces, popularity split and simulation RNGs derive from it)")
	seconds := flag.Int("seconds", 20, "minimum host seconds of timed passes")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(threads)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d %s\n",
		*name, *seed, *seconds, *trace, threads, runtime.Version())

	b := mk()
	limit := time.Duration(*seconds) * time.Second
	var r *report
	var err error
	if *trace == 1 {
		r, err = runTraced(b, *name, *seed, limit)
	} else {
		r, err = runTimed(b, *seed, limit)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print()
	if !r.Correct {
		os.Exit(1)
	}
}

// report is the run's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	errs      []string
	human     []string // extra lines printed before the metrics
	set       *metricSet
}

func (r *report) print() {
	for _, l := range r.human {
		fmt.Println(l)
	}
	for _, d := range r.set.defs {
		fmt.Printf("metric %-32s %16.6g %s\n", d.Name, r.set.values[d.Name], d.Unit)
	}
	for _, e := range r.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	r.Metrics = r.set.json()
	line, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

// passStat is one timed pass's host cost.
type passStat struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	ops            int
	out            *passOut
	gcCycles       uint32
	gcPause        time.Duration
	gcCPU, busyCPU float64
}

// timedPass runs one pass from a collected heap and measures it.
func timedPass(b bench, tr *tracer) (passStat, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuClasses()
	u0 := processCPU()
	t0 := time.Now()
	inspect, err := b.pass(tr)
	wall := time.Since(t0)
	cpu := processCPU() - u0
	runtime.ReadMemStats(&m1)
	// The runtime folds GC CPU time into its counters at the end of a
	// cycle; one more collection flushes the pass's share.
	runtime.GC()
	c1 := cpuClasses()
	if err != nil {
		return passStat{}, err
	}
	out := inspect()
	return passStat{
		wall: wall, cpu: cpu, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		ops: out.ops, out: out,
		gcCycles: m1.NumGC - m0.NumGC, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		gcCPU: c1[0] - c0[0], busyCPU: (c1[0] + c1[1]) - (c0[0] + c0[1]),
	}, nil
}

// cpuClasses reads the runtime's cumulative GC and user CPU seconds.
func cpuClasses() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []passStat, f func(passStat) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// verify checks one pass and that it rendered exactly like the run's
// first pass, and folds its operation counts into the report.
func (r *report) verify(p *passOut, first *passOut) {
	r.errs = append(r.errs, p.errs...)
	if p.render != first.render {
		r.errs = append(r.errs, "passes of one run rendered different results: the simulation is not deterministic")
	}
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// runTimed is the end-to-end measurement: set-up several times, then
// whole passes until the time limit, with no tracing.
func runTimed(b bench, seed int64, limit time.Duration) (*report, error) {
	var setups []float64
	for i := 0; i < b.setupReps(); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r := &report{set: newMetricSet(endToEnd)}
	var passes []passStat
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < limit {
		p, err := timedPass(b, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		r.verify(p.out, passes[0].out)
	}
	r.set.set("setup_s", median(setups))
	r.set.set("wall_s", medianOf(passes, func(p passStat) float64 { return p.wall.Seconds() }))
	r.set.set("ops_per_s", medianOf(passes, func(p passStat) float64 { return float64(p.ops) / p.wall.Seconds() }))
	r.set.set("allocs_per_op", medianOf(passes, func(p passStat) float64 { return float64(p.mallocs) / float64(max(p.ops, 1)) }))
	r.set.set("alloc_mb", medianOf(passes, func(p passStat) float64 { return float64(p.bytes) / mib }))
	r.set.set("max_rss_mb", float64(rusage().Maxrss)/1024) // Linux reports KiB
	r.human = append(r.human, b.notes()...)
	r.human = append(r.human, fmt.Sprintf("passes %d, set-ups %d", len(passes), len(setups)))
	var walls, cpus []string
	for _, p := range passes {
		walls = append(walls, fmt.Sprintf("%.3f", p.wall.Seconds()))
		cpus = append(cpus, fmt.Sprintf("%.3f", p.cpu.Seconds()))
	}
	r.human = append(r.human, "pass wall_s "+strings.Join(walls, " "), "pass cpu_s "+strings.Join(cpus, " "))
	r.human = append(r.human, simulatedLines(passes[0].out)...)
	r.Correct = len(r.errs) == 0 && r.Failed == 0
	return r, nil
}

// simulatedLines prints the modelled system's results, which the JSON
// line carries only in the traced run.
func simulatedLines(p *passOut) []string {
	lines := []string{fmt.Sprintf("simulated failed_frac %.6g (%d of %d operations)",
		float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted)}
	if p.fleet != nil {
		v := p.fleet.virtual()
		lines = append(lines, fmt.Sprintf(
			"simulated ttft_p50_s %.6g ttft_p99_s %.6g tpot_p99_s %.6g slo_attainment %.6g node_seconds %.6g cold_start_p50_s %.6g drain_s %.6g",
			v.ttftP50.Seconds(), v.ttftP99.Seconds(), v.tpotP99.Seconds(), v.sloAttainment,
			v.nodeSeconds, v.coldStartP50.Seconds(), v.drain.Seconds()))
	}
	return lines
}

// rusage reads the process's resource usage; on failure it reads zero.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTraced is the per-layer measurement: a traced set-up, the traced
// layer calls, then untraced and traced passes alternately until the
// time limit (at least one of each), the traced ones under a CPU
// profile. The spans are written to .bench_build/perfbench-spans/.
func runTraced(b bench, name string, seed int64, limit time.Duration) (*report, error) {
	tr := newTracer()
	if err := b.setup(seed, tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	encoded, err := b.layers(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("layer calls: %w", err)
	}
	r := &report{set: newMetricSet(perLayer())}
	ms := r.set
	setLayerMetrics(tr, encoded, ms)

	var plain, traced []passStat
	samples := map[string]int64{}
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < limit {
		p, err := timedPass(b, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		r.verify(p.out, plain[0].out)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		p, err = timedPass(b, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := cpuSamples(prof.Bytes(), samples); err != nil {
			return nil, err
		}
		traced = append(traced, p)
		r.verify(p.out, plain[0].out)
	}

	n := float64(len(traced))
	tw := medianOf(traced, func(p passStat) float64 { return p.wall.Seconds() })
	uw := medianOf(plain, func(p passStat) float64 { return p.wall.Seconds() })
	ms.set("trace.wall_s", tw)
	ms.set("trace.untraced_wall_s", uw)
	ms.set("trace.overhead_frac", tw/uw-1)
	var gcCycles, gcCPU, busy float64
	var pause time.Duration
	for _, p := range traced {
		gcCycles += float64(p.gcCycles)
		gcCPU += p.gcCPU
		busy += p.busyCPU
		pause += p.gcPause
	}
	ms.set("gc.cycles", gcCycles/n)
	ms.set("gc.pause_s", pause.Seconds()/n)
	if busy > 0 {
		ms.set("gc.cpu_frac", gcCPU/busy)
	}
	var total int64
	for _, c := range samples {
		total += c
	}
	if total > 0 {
		other := total
		for _, mod := range cpuModules {
			ms.set("cpu."+mod+".frac", float64(samples[mod])/float64(total))
			other -= samples[mod]
		}
		ms.set("cpu.other.frac", float64(other)/float64(total))
	}
	for _, id := range experiments.IDs() {
		if d, k, _ := tr.total("experiments.Run:" + id); k > 0 {
			ms.set("exhibit."+id+".s", d.Seconds()/float64(k))
		}
	}
	out := traced[len(traced)-1].out
	ms.set("failed_frac", float64(out.failed)/float64(max(out.attempted, 1)))
	if out.fleet != nil {
		d, k, _ := tr.total("cluster.Run")
		fleetLayerMetrics(out.fleet, d.Seconds()/float64(k), ms)
	}
	r.human = append(r.human, b.notes()...)
	r.human = append(r.human, fmt.Sprintf("passes %d traced + %d untraced, %d CPU samples, %d spans",
		len(traced), len(plain), total, len(tr.spans)))
	path, err := writeSpans(tr, name, seed)
	if err != nil {
		return nil, err
	}
	r.human = append(r.human, "spans written to "+path)
	r.Correct = len(r.errs) == 0 && r.Failed == 0
	return r, nil
}

// fleetLayerMetrics derives the simulator-loop, workload, cache,
// control-plane and virtual-time metrics of one traced fleet pass.
func fleetLayerMetrics(p *fleetPass, runS float64, ms *metricSet) {
	res := p.res
	v := p.virtual()
	ms.set("ttft_p50_s", v.ttftP50.Seconds())
	ms.set("ttft_p99_s", v.ttftP99.Seconds())
	ms.set("tpot_p99_s", v.tpotP99.Seconds())
	ms.set("slo_attainment", v.sloAttainment)
	ms.set("node_seconds", v.nodeSeconds)
	ms.set("cold_start_p50_s", v.coldStartP50.Seconds())
	ms.set("sim.drain_s", v.drain.Seconds())
	ms.set("sim.run.s", runS)
	attempted := p.arrivals.n + followUps(res)
	ms.set("sim.ns_per_req", runS*1e9/float64(max(attempted, 1)))
	iters, preempt := 0, 0
	for _, d := range res.PerDeployment {
		iters += counterValue(d.Metrics, "iterations")
		preempt += d.Preemptions
	}
	ms.set("sim.iterations", float64(iters))
	ms.set("sim.follow_ups", float64(followUps(res)))
	ms.set("workload.arrivals", float64(p.arrivals.n))
	ms.set("workload.ns_per_arrival", float64(p.arrivals.elapsed)/float64(max(p.arrivals.n, 1)))
	c := res.Cache
	ms.set("cache.hit_rate", c.HitRate())
	ms.set("cache.ram_hits", float64(c.RAMHits))
	ms.set("cache.ssd_hits", float64(c.SSDHits))
	ms.set("cache.misses", float64(c.Misses))
	ms.set("cache.coalesced", float64(c.Coalesced))
	ms.set("cache.evictions", float64(c.RAMEvictions+c.SSDEvictions))
	ms.set("cache.bytes_fetched_mb", float64(c.BytesFetched)/mib)
	ms.set("cache.retries", float64(c.Retries))
	ms.set("cache.timed_out", float64(c.TimedOut))
	for stage, d := range phaseTotals(res) {
		ms.set("coldstart.phase."+stage+".s", d.Seconds())
	}
	ms.set("sched.preemptions", float64(preempt))
	ms.set("autoscale.cold_starts", float64(res.TotalColdStarts))
	ms.set("autoscale.gpu_seconds", res.GPUSeconds)
	ms.set("router.launch_spread", launchSpread(res))
	ms.set("faults.degraded", float64(res.Degraded))
	ms.set("faults.requeued", float64(res.Requeued))
}

// writeSpans writes the traced run's spans, with self times, under the
// build directory.
func writeSpans(tr *tracer, name string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench-spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.writeJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// paperBench runs paper-all.
type paperBench struct {
	dir string
	st  *paperState
}

func (b *paperBench) setupReps() int { return 50 }

func (b *paperBench) notes() []string { return b.st.notes }

func (b *paperBench) setup(_ int64, tr *tracer) error {
	return tr.do("setup.results", func() error {
		st, err := setupPaper(b.dir)
		b.st = st
		return err
	})
}

func (b *paperBench) pass(tr *tracer) (func() *passOut, error) {
	p := b.st.pass(tr)
	return func() *passOut {
		return &passOut{
			ops: len(b.st.ids) - len(p.failed), attempted: len(b.st.ids), failed: len(p.failed),
			render: p.render(b.st.ids), errs: append(b.st.check(p), p.failed...),
		}
	}, nil
}

// layers runs the offline pipeline, template factoring and the layer
// calls over the paper's model zoo: inside the exhibits these run
// lazily, where the benchmark cannot time them.
func (b *paperBench) layers(seed int64, tr *tracer) (int, error) {
	zoo := &fleetWorkload{templates: true, deployment: func(*serverless.Config) {}}
	for _, cfg := range model.Zoo() {
		zoo.models = append(zoo.models, cfg.Name)
	}
	st, err := zoo.setup(seed, tr)
	if err != nil {
		return 0, err
	}
	return layerCalls(tr, st.deps, 4, false) // the paper's testbed: four GPUs, no faults
}

// fleetBench runs a fleet workload.
type fleetBench struct {
	w  *fleetWorkload
	st *fleetState
}

func (b *fleetBench) setupReps() int { return 3 }

func (b *fleetBench) notes() []string { return nil }

func (b *fleetBench) setup(seed int64, tr *tracer) error {
	st, err := b.w.setup(seed, tr)
	b.st = st
	return err
}

func (b *fleetBench) pass(tr *tracer) (func() *passOut, error) {
	p, err := b.st.pass(tr)
	if err != nil {
		return nil, err
	}
	return func() *passOut {
		out := &passOut{fleet: p, render: p.res.Render()}
		out.attempted = p.arrivals.n + followUps(p.res)
		out.ops = p.res.Completed
		out.failed = out.attempted - out.ops
		out.errs = b.st.check(p)
		return out
	}, nil
}

func (b *fleetBench) layers(_ int64, tr *tracer) (int, error) {
	var cfg cluster.Config
	if err := b.w.cluster(&cfg); err != nil {
		return 0, err
	}
	return layerCalls(tr, b.st.deps, cfg.GPUsPerNode, cfg.Faults.Plan != nil)
}
