// Command benchdiff compares two sets of perfbench runs. Each set is a
// directory of files, one per run, each holding that run's standard
// output: perfbench's header line names the workload and trace mode,
// and the last line is the result JSON.
//
//	go run ./benchdiff -bench ../BENCHMARK.json parent/ change/
//
// For every workload and metric it prints each side's median and
// quartiles (Python's statistics.quantiles, exclusive method) and, for
// end-to-end metrics, a verdict against the metric's bound in
// BENCHMARK.json:
//
//	regressed   the change's median is worse by more than the bound
//	improved    better by more than the parent's own quartile spread
//	unchanged   neither
//	unresolved  a side's quartile spread exceeds the bound, unless every
//	            run of the change reads better than every run of the parent
//
// Given one directory it prints the spread of each metric instead, and
// whether it is under a third of the bound (steady).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// group is one (workload, trace mode) pair's runs.
type group struct {
	workload string
	trace    bool
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-bench BENCHMARK.json] runs-dir [change-runs-dir]")
		os.Exit(2)
	}
	spec, err := readSpec(*benchPath)
	if err != nil {
		fail(err)
	}
	var sets []map[group][]result
	for _, dir := range flag.Args() {
		s, err := readRuns(dir)
		if err != nil {
			fail(err)
		}
		sets = append(sets, s)
	}
	if len(sets) == 1 {
		spread(os.Stdout, spec, sets[0])
		return
	}
	compare(os.Stdout, spec, sets[0], sets[1])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns parses every regular file of dir as one run's output.
func readRuns(dir string) (map[group][]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[group][]result{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		g, r, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[g] = append(out[g], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	return out, nil
}

// parseRun reads one run's output: the header line and the last line.
func parseRun(r io.Reader) (group, result, error) {
	var g group
	var last string
	header := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "perfbench ") && !header {
			header = true
			for _, f := range strings.Fields(line) {
				k, v, _ := strings.Cut(f, "=")
				switch k {
				case "workload":
					g.workload = v
				case "trace":
					g.trace = v == "1"
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return g, result{}, err
	}
	if !header {
		return g, result{}, fmt.Errorf("no perfbench header line")
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return g, result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return g, res, nil
}

// quantiles returns the quartiles as Python's statistics.quantiles(xs,
// n=4) computes them (exclusive method); xs must hold at least two
// values.
func quantiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q
}

func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// stats summarizes one metric over a set of runs.
type stats struct {
	n           int
	med, q1, q3 float64
	spread      float64 // (q3 - q1) / median
	values      []float64
}

func summarize(runs []result, name string) (stats, bool) {
	var s stats
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			s.values = append(s.values, m.Value)
		}
	}
	s.n = len(s.values)
	if s.n == 0 {
		return s, false
	}
	s.med = median(s.values)
	s.q1, s.q3 = s.med, s.med
	if s.n >= 2 {
		q := quantiles(s.values)
		s.q1, s.q3 = q[0], q[2]
	}
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / abs(s.med)
	}
	return s, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// metricsFor lists a group's metrics: end-to-end for untraced runs,
// per-layer for traced ones.
func metricsFor(spec *benchSpec, g group) []metricSpec {
	if g.trace {
		return spec.PerLayer
	}
	return spec.EndToEnd
}

func sortedGroups(sets ...map[group][]result) []group {
	seen := map[group]bool{}
	var gs []group
	for _, s := range sets {
		for g := range s {
			if !seen[g] {
				seen[g] = true
				gs = append(gs, g)
			}
		}
	}
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].workload != gs[j].workload {
			return gs[i].workload < gs[j].workload
		}
		return !gs[i].trace && gs[j].trace
	})
	return gs
}

func title(g group, runs ...[]result) string {
	mode := "end-to-end"
	if g.trace {
		mode = "per-layer (traced)"
	}
	var counts []string
	for _, r := range runs {
		counts = append(counts, fmt.Sprint(len(r)))
	}
	return fmt.Sprintf("== %s, %s, runs %s", g.workload, mode, strings.Join(counts, " vs "))
}

// spread prints one set's medians, quartiles and spreads.
func spread(w io.Writer, spec *benchSpec, set map[group][]result) {
	for _, g := range sortedGroups(set) {
		runs := set[g]
		fmt.Fprintln(w, title(g, runs))
		for _, m := range metricsFor(spec, g) {
			s, ok := summarize(runs, m.Name)
			if !ok {
				fmt.Fprintf(w, "  %-34s missing\n", m.Name)
				continue
			}
			verdict := ""
			if m.Bound != nil {
				switch {
				case s.spread > *m.Bound:
					verdict = fmt.Sprintf("spread above bound %.3g", *m.Bound)
				case s.spread > *m.Bound/3:
					verdict = fmt.Sprintf("spread above a third of bound %.3g", *m.Bound)
				default:
					verdict = fmt.Sprintf("steady (bound %.3g)", *m.Bound)
				}
			}
			fmt.Fprintf(w, "  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %-8.4f %s %s\n",
				m.Name, s.med, s.q1, s.q3, s.spread, m.Unit, verdict)
		}
		correct := 0
		for _, r := range runs {
			if r.Correct && r.Failed == 0 {
				correct++
			}
		}
		fmt.Fprintf(w, "  correct runs: %d of %d\n", correct, len(runs))
	}
}

// compare prints, per workload and metric, both sides and a verdict.
func compare(w io.Writer, spec *benchSpec, parent, change map[group][]result) {
	for _, g := range sortedGroups(parent, change) {
		pr, cr := parent[g], change[g]
		fmt.Fprintln(w, title(g, pr, cr))
		for _, m := range metricsFor(spec, g) {
			a, okA := summarize(pr, m.Name)
			b, okB := summarize(cr, m.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "  %-34s missing on one side\n", m.Name)
				continue
			}
			fmt.Fprintf(w, "  %-34s parent %-12.6g [%-12.6g %-12.6g] change %-12.6g [%-12.6g %-12.6g] %+7.2f%% %s\n",
				m.Name, a.med, a.q1, a.q3, b.med, b.q1, b.q3, 100*relChange(a.med, b.med), verdict(m, a, b))
		}
	}
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / abs(a)
}

// verdict judges one metric by the rule in the package comment.
func verdict(m metricSpec, a, b stats) string {
	if m.Bound == nil {
		return ""
	}
	bound := *m.Bound
	// worse > 0 means the change is worse, as a share of the parent.
	worse := relChange(a.med, b.med)
	if m.Better == "higher" {
		worse = -worse
	}
	if a.spread > bound || b.spread > bound {
		if allBetter(m, a.values, b.values) {
			return "improved (every run)"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "regressed"
	case -worse > a.spread && worse < 0:
		return "improved"
	default:
		return "unchanged"
	}
}

// allBetter reports whether every change run beats every parent run.
func allBetter(m metricSpec, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	for _, p := range parent {
		for _, c := range change {
			if (m.Better == "higher" && c <= p) || (m.Better != "higher" && c >= p) {
				return false
			}
		}
	}
	return true
}
