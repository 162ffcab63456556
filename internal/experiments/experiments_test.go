package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sharedCtx reuses offline artifacts across tests; building them for
// all ten models is the dominant cost.
var sharedCtx = NewContext()

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Run(sharedCtx, id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id || len(r.Rows) == 0 || len(r.Header) == 0 {
		t.Fatalf("%s: malformed report %+v", id, r)
	}
	if !strings.Contains(r.Render(), r.Title) {
		t.Fatalf("%s: Render missing title", id)
	}
	return r
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run(sharedCtx, "fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestResultFilesCheckedIn pins the id→file mapping that medusa-bench
// -out and make results-check share: every exhibit's file is checked
// in under results/, ext-fleet under the name the docs cite.
func TestResultFilesCheckedIn(t *testing.T) {
	if f := ResultFile("ext-fleet"); f != "ext-fleet-sweep.txt" {
		t.Fatalf("ext-fleet saves to %s, want ext-fleet-sweep.txt", f)
	}
	for _, id := range IDs() {
		if _, err := os.Stat(filepath.Join("..", "..", "results", ResultFile(id))); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "fig7", "fig8", "fig9", "fig10", "fig11",
		"ablation-index", "ablation-copyfree", "ablation-resolve", "ablation-trigger",
		"ext-checkpoint", "ext-multigpu", "ext-deferred", "ext-sensitivity",
		"ext-capturesizes", "ext-hotspare", "ext-cache-policies", "ext-scale",
		"ext-batching", "ext-fault-sweep", "ext-fleet", "ext-template"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestExtCachePoliciesSweep(t *testing.T) {
	r := runExp(t, "ext-cache-policies")
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want one per eviction policy", len(r.Rows))
	}
	rates := map[string]float64{}
	for _, row := range r.Rows {
		rates[row[0]] = parsePct(t, row[1])
	}
	if rates["costaware"] <= rates["lru"] {
		t.Errorf("cost-aware hit rate %.3f not above LRU %.3f", rates["costaware"], rates["lru"])
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := runExp(t, "table1")
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[2] != row[3] {
			t.Errorf("%s: measured nodes %s != paper %s", row[0], row[2], row[3])
		}
	}
}

func TestFigure1Shares(t *testing.T) {
	r := runExp(t, "fig1")
	// Loading must dominate (paper: 76%).
	loadShare := parsePct(t, r.Rows[1][2])
	if loadShare < 0.65 || loadShare > 0.85 {
		t.Errorf("loading share = %.2f, want ≈0.76", loadShare)
	}
}

func TestFigure2Aggregates(t *testing.T) {
	r := runExp(t, "fig2")
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The combined KV+capture share should be near the paper's 47%.
	note := r.Notes[0]
	if !strings.Contains(note, "combined") {
		t.Fatalf("note = %q", note)
	}
}

func TestFigure3Speedups(t *testing.T) {
	r := runExp(t, "fig3")
	maxSpeed := 0.0
	for _, row := range r.Rows {
		s, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if s <= 1 {
			t.Errorf("%s: speedup %.2f ≤ 1", row[0], s)
		}
		if s > maxSpeed {
			maxSpeed = s
		}
	}
	if maxSpeed < 1.8 || maxSpeed > 2.8 {
		t.Errorf("max speedup = %.2f, paper reports up to 2.4x", maxSpeed)
	}
}

func TestFigure7Reductions(t *testing.T) {
	r := runExp(t, "fig7")
	for _, row := range r.Rows {
		cut := parsePct(t, row[4])
		if cut < 0.15 || cut > 0.60 {
			t.Errorf("%s: loading reduction %.2f outside paper band [21.1%%, 42.9%%]±", row[0], cut)
		}
	}
	// Average reduction near the paper's 42.5%.
	if !strings.Contains(r.Notes[0], "avg loading reduction") {
		t.Fatalf("notes = %v", r.Notes)
	}
}

func TestFigure8Anchors(t *testing.T) {
	r := runExp(t, "fig8")
	foundKV := false
	for _, n := range r.Notes {
		if strings.Contains(n, "KV-init") {
			foundKV = true
		}
	}
	if !foundKV {
		t.Fatalf("notes = %v", r.Notes)
	}
}

func TestFigure9Durations(t *testing.T) {
	r := runExp(t, "fig9")
	for _, row := range r.Rows {
		total, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if total <= 0 || total > 90 {
			t.Errorf("%s: offline total %.1fs out of the paper's <1min ballpark", row[0], total)
		}
	}
}

func TestAblations(t *testing.T) {
	idx := runExp(t, "ablation-index")
	joined := ""
	for _, row := range idx.Rows {
		joined += strings.Join(row, " ") + "\n"
	}
	if !strings.Contains(joined, "trace-based backward") || !strings.Contains(joined, "OK") {
		t.Fatalf("index ablation rows:\n%s", joined)
	}
	if !strings.Contains(joined, "CORRUPTED") && !strings.Contains(joined, "FAILED") {
		t.Fatalf("naive matching did not fail:\n%s", joined)
	}
	runExp(t, "ablation-copyfree")
	res := runExp(t, "ablation-resolve")
	for _, row := range res.Rows {
		share := parsePct(t, row[4])
		if share < 0.4 || share > 0.95 {
			t.Errorf("%s: dlsym share %.2f implausible vs paper's 69.2%%", row[0], share)
		}
	}
	trig := runExp(t, "ablation-trigger")
	joined = ""
	for _, row := range trig.Rows {
		joined += strings.Join(row, " ") + "\n"
	}
	if !strings.Contains(joined, "FAILED as expected") {
		t.Fatalf("trigger ablation rows:\n%s", joined)
	}
}

func TestFigure10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trace simulation skipped in -short mode")
	}
	r := runExp(t, "fig10")
	// 2 models × 2 rates × 4 strategies.
	if len(r.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(r.Rows))
	}
	// Medusa's p99 must undercut vLLM's in every (model, RPS) block.
	for block := 0; block < 4; block++ {
		rows := r.Rows[block*4 : block*4+4]
		vllm := parseSecs(t, rows[0][3])
		med := parseSecs(t, rows[3][3])
		if med >= vllm {
			t.Errorf("block %d: Medusa p99 %v not below vLLM %v", block, med, vllm)
		}
	}
}

func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments skipped in -short mode")
	}
	for _, id := range []string{"ext-checkpoint", "ext-deferred", "ext-sensitivity", "ext-capturesizes"} {
		runExp(t, id)
	}
}

func TestExtensionsHeavySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy extension experiments skipped in -short mode")
	}
	hot := runExp(t, "ext-hotspare")
	if len(hot.Rows) != 9 {
		t.Fatalf("hotspare rows = %d", len(hot.Rows))
	}
	mg := runExp(t, "ext-multigpu")
	if len(mg.Rows) != 3 {
		t.Fatalf("multigpu rows = %d", len(mg.Rows))
	}
}

func TestFigure11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trace simulation skipped in -short mode")
	}
	r := runExp(t, "fig11")
	if len(r.Rows) != 2*4*len(figure11Rates) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q", s)
	}
	return v / 100
}

func parseSecs(t *testing.T, s string) time.Duration {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad seconds %q", s)
	}
	return time.Duration(v * float64(time.Second))
}
