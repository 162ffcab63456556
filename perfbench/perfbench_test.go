package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

func TestCountingSourceMatchesSlice(t *testing.T) {
	reqs, err := workload.Generate(workload.TraceConfig{Seed: 3, RPS: 50, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, timed := range []bool{false, true} {
		stats := &arrivalStats{timed: timed}
		got, err := workload.Collect(countingSource{workload.NewSlice(reqs), stats})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("timed=%v: wrapper yielded %d requests, slice holds %d", timed, len(got), len(reqs))
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				t.Fatalf("timed=%v: request %d = %+v, want %+v", timed, i, got[i], reqs[i])
			}
		}
		if stats.n != len(reqs) || stats.last != reqs[len(reqs)-1].Arrival {
			t.Fatalf("timed=%v: counted %d arrivals ending %v, want %d ending %v",
				timed, stats.n, stats.last, len(reqs), reqs[len(reqs)-1].Arrival)
		}
		if timed != (stats.elapsed > 0) {
			t.Fatalf("timed=%v but elapsed = %v", timed, stats.elapsed)
		}
	}

	// Through the multi-deployment merge the counts add up.
	stats := &arrivalStats{}
	half := len(reqs) / 2
	merged := serverless.MergeArrivals([]workload.Source{
		countingSource{workload.NewSlice(reqs[:half]), stats},
		countingSource{workload.NewSlice(reqs[half:]), stats},
	})
	n := 0
	for {
		if _, _, ok := merged.Next(); !ok {
			break
		}
		n++
	}
	if n != len(reqs) || stats.n != len(reqs) {
		t.Fatalf("merge delivered %d, wrapper counted %d, want %d", n, stats.n, len(reqs))
	}
}

func TestSelfTimesNested(t *testing.T) {
	// root [0,100] has children a [10,30] and b [25,50] that overlap,
	// and c [90,120] that runs past it; a has child aa [12,20].
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "aa", ID: 2, Parent: 1, Start: 12, End: 20},
		{Name: "b", ID: 3, Parent: 0, Start: 25, End: 50},
		{Name: "c", ID: 4, Parent: 0, Start: 90, End: 120},
	}
	want := []time.Duration{
		100 - 40 - 10, // children cover [10,50] and [90,100]
		20 - 8,
		8,
		25,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerParentsAndTotals(t *testing.T) {
	tr := newTracer()
	_ = tr.do("outer", func() error {
		_ = tr.do("inner", func() error { return nil })
		return tr.do("inner", func() error { return nil })
	})
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != 0 || s.End < s.Start || s.Start < tr.spans[0].Start || s.End > tr.spans[0].End {
			t.Fatalf("inner span %+v not nested in %+v", s, tr.spans[0])
		}
	}
	if _, n, _ := tr.total("inner"); n != 2 {
		t.Fatalf("total counted %d inner spans, want 2", n)
	}
	var nilTracer *tracer
	if err := nilTracer.do("x", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil || len(rows) != 3 {
		t.Fatalf("spans file: %v, %d rows", err, len(rows))
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON checks that the names the benchmark
// emits are well formed, unique, and exactly the ones BENCHMARK.json
// declares, with the same units and directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		emitted  []metricDef
		declared []metricDef
	}{
		{"end_to_end", endToEnd, spec.EndToEnd},
		{"per_layer", perLayer(), spec.PerLayer},
	} {
		declared := map[string]metricDef{}
		for _, d := range c.declared {
			declared[d.Name] = d
		}
		seen := map[string]bool{}
		for name, v := range newMetricSet(c.emitted).json() {
			if !metricName.MatchString(name) {
				t.Errorf("%s metric %q is not a valid name", c.kind, name)
			}
			d, ok := declared[name]
			if !ok {
				t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", c.kind, name)
				continue
			}
			if d.Unit != v.Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", c.kind, name, v.Unit, d.Unit)
			}
			seen[name] = true
		}
		for _, d := range c.emitted {
			if declared[d.Name].Better != d.Better {
				t.Errorf("%s metric %q: better %q, BENCHMARK.json says %q", c.kind, d.Name, d.Better, declared[d.Name].Better)
			}
		}
		if len(seen) != len(c.emitted) {
			t.Errorf("%s: %d distinct names for %d catalogue entries", c.kind, len(seen), len(c.emitted))
		}
		for name := range declared {
			if !seen[name] {
				t.Errorf("%s metric %q is in BENCHMARK.json but never emitted", c.kind, name)
			}
		}
	}
}

// TestSmallFleetPass runs a miniature faulty, batched, template fleet
// through set-up, a traced pass, the checks and the layer metrics: the
// checks pass and every metric the pass sets is in the catalogue (set
// panics otherwise).
func TestSmallFleetPass(t *testing.T) {
	w := *fleetBatched
	w.models = []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B"}
	w.arrivals = func(seed int64, n int, wrap func(workload.Source) workload.Source) (serverless.ArrivalSource, error) {
		src, err := workload.NewPoisson(workload.TraceConfig{
			Seed: derive(seed, 1), RPS: 20, Duration: 20 * time.Second, MeanOutput: 8, MaxOutput: 16,
		})
		if err != nil {
			return nil, err
		}
		return cluster.ZipfArrivals(wrap(src), n, derive(seed, 2), 1.2)
	}
	b := &fleetBench{w: &w}
	tr := newTracer()
	if err := b.setup(5, tr); err != nil {
		t.Fatal(err)
	}
	inspect, err := b.pass(tr)
	if err != nil {
		t.Fatal(err)
	}
	out := inspect()
	if len(out.errs) > 0 || out.failed != 0 || out.attempted == 0 {
		t.Fatalf("pass: %d attempted, %d failed, checks %v", out.attempted, out.failed, out.errs)
	}
	again, err := b.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if again().render != out.render {
		t.Fatal("traced and untraced passes rendered different results")
	}
	ms := newMetricSet(perLayer())
	encoded, err := b.layers(5, tr)
	if err != nil {
		t.Fatal(err)
	}
	setLayerMetrics(tr, encoded, ms)
	d, _, _ := tr.total("cluster.Run")
	fleetLayerMetrics(out.fleet, d.Seconds(), ms)
	for _, name := range []string{"workload.arrivals", "sim.run.s", "engine.offline.calls",
		"serverless.profile.calls", "medusa.encode.mb_per_s", "engine.coldstart.medusa.ms"} {
		if ms.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, ms.values[name])
		}
	}
	// Two deployments under a fault plan build a primary and a fallback
	// profile each.
	if got := ms.values["serverless.profile.calls"]; got != 4 {
		t.Errorf("serverless.profile.calls = %v, want 4", got)
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "github.com/medusa-repro/medusa/internal/eventq.(*Queue[...]).Push", "main.main"}, "eventq"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "github.com/medusa-repro/medusa/internal/cluster.(*simulation).run"}, "runtime-malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime-gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "github.com/medusa-repro/medusa/internal/medusa.Decode"}, "runtime-gc"},
		{[]string{"github.com/medusa-repro/medusa/internal/medusa.(*Restorer).buildNode"}, "medusa"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		x++
	}
	return x
}

func TestCPUSamplesParsesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	if err := cpuSamples(buf.Bytes(), counts); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no samples decoded from a 300 ms busy loop")
	}
}

func TestPaperSetupAndCheck(t *testing.T) {
	st, err := setupPaper("../results")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.notes) != 1 || !strings.Contains(st.notes[0], "ext-fleet-sweep.txt") {
		t.Fatalf("notes = %q, want exactly the ext-fleet name drift", st.notes)
	}
	p := &paperPass{rendered: map[string]string{}}
	for id, want := range st.expected {
		p.rendered[id] = string(want)
	}
	if errs := st.check(p); len(errs) != 0 {
		t.Fatalf("the checked-in outputs fail their own check: %v", errs)
	}
	p.rendered["fig7"] += "extra line\n"
	if errs := st.check(p); len(errs) != 1 || !strings.Contains(errs[0], "fig7") {
		t.Fatalf("a changed fig7 gave %v, want one fig7 error", errs)
	}
}
