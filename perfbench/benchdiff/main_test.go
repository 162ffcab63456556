package main

import (
	"strings"
	"testing"
)

func TestQuantilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 1.0, 7.7}, [3]float64{1.0, 3.1, 7.7}},
	} {
		got := quantiles(c.xs)
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: &bound}
	st := func(vals ...float64) stats {
		var runs []result
		for _, v := range vals {
			r := result{Metrics: map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{}}
			r.Metrics["m"] = struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{Value: v}
			runs = append(runs, r)
		}
		s, _ := summarize(runs, "m")
		return s
	}
	steady := st(10, 10.1, 9.9, 10, 10.05)
	for _, c := range []struct {
		m    metricSpec
		a, b stats
		want string
	}{
		{lower, steady, st(12, 12.1, 11.9, 12, 12.05), "regressed"},
		{lower, steady, st(9, 9.1, 8.9, 9, 9.05), "improved"},
		{lower, steady, st(10.2, 10.1, 10.3, 10.2, 10.25), "unchanged"},
		{higher, steady, st(12, 12.1, 11.9, 12, 12.05), "improved"},
		{higher, steady, st(8, 8.1, 7.9, 8, 8.05), "regressed"},
		{lower, steady, st(5, 15, 8, 12, 10), "unresolved"},
		{lower, st(20, 30, 25, 22, 28), st(5, 6, 7, 8, 9), "improved (every run)"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v vs %v) = %q, want %q", c.m.Better, c.a.values, c.b.values, got, c.want)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := "perfbench workload=fleet-stream seed=3 seconds=20 trace=1 gomaxprocs=2 go1.24.0\n" +
		"metric wall_s 1 s\n" +
		`{"correct":true,"attempted":5,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}` + "\n"
	g, r, err := parseRun(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if g.workload != "fleet-stream" || !g.trace || r.Attempted != 5 || r.Metrics["wall_s"].Value != 1.5 {
		t.Fatalf("parsed %+v %+v", g, r)
	}
	if _, _, err := parseRun(strings.NewReader("no header\n{}\n")); err == nil {
		t.Fatal("a run without the header line parsed")
	}
}
