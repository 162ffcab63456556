package medusa

import (
	"bytes"
	"slices"
	"testing"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// restoredFixture captures and analyzes a linear graph of the given size
// offline, then replays it into a fresh process and returns the
// restorer, ready for RestoreGraphs.
func restoredFixture(t *testing.T, nodes int) *Restorer {
	t.Helper()
	p, rec := offlineBenchFixture(t, nodes)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "slab", SkipContents: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh := cuda.NewProcess(toyRuntime(), vclock.New(), cuda.Config{Seed: 2, Mode: gpu.CostOnly})
	rest, err := NewRestorer(fresh, art)
	if err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayPrefix(); err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		t.Fatal(err)
	}
	return rest
}

// sameNode reports whether two nodes carry equal data.
func sameNode(a, b *cuda.Node) bool {
	if a.ID != b.ID || a.KernelAddr != b.KernelAddr || len(a.Params) != len(b.Params) ||
		!slices.Equal(a.ParamSizes, b.ParamSizes) || !slices.Equal(a.Deps, b.Deps) {
		return false
	}
	for i := range a.Params {
		if !bytes.Equal(a.Params[i], b.Params[i]) {
			return false
		}
	}
	return true
}

func TestRestoredNodesDoNotAlias(t *testing.T) {
	execs, err := restoredFixture(t, 300).RestoreGraphs(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := execs[1].Graph().Nodes()
	want := make([]*cuda.Node, len(nodes))
	for i, n := range nodes {
		want[i] = n.Clone()
	}
	// Every slab-carved slice is capacity-capped: an append on one
	// node's data must reallocate, never write into a neighbour.
	for i, n := range nodes {
		for j := range n.Params {
			_ = append(n.Params[j], 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
		}
		_ = append(n.Params, []byte{0xEE})
		_ = append(n.ParamSizes, -1, -1)
		_ = append(n.Deps, -1, -1)
		for k, m := range nodes {
			if !sameNode(m, want[k]) {
				t.Fatalf("appending to restored node %d's data changed node %d", i, k)
			}
		}
	}
	c := nodes[5].Clone()
	c.Params[0][0] ^= 0xFF
	c.Deps[0] = 99
	if !sameNode(nodes[5], want[5]) {
		t.Fatal("Clone of a restored node shares backing storage")
	}
}

func TestRestoreGraphsAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const nodes = 1000
	rest := restoredFixture(t, nodes)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := rest.RestoreGraphs(nil); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / nodes; per > 2 {
		t.Fatalf("RestoreGraphs makes %.3f allocs per node (%v for %d nodes); want at most 2", per, allocs, nodes)
	}
}

func TestAnalyzedRecordsDoNotAlias(t *testing.T) {
	p, rec := offlineBenchFixture(t, 50)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "slab", SkipContents: true})
	if err != nil {
		t.Fatal(err)
	}
	nodes := art.Graphs[0].Nodes
	snapshot := func() []byte {
		var b []byte
		for _, n := range nodes {
			for _, d := range n.Deps {
				b = append(b, byte(d), byte(d>>8))
			}
			for _, pr := range n.Params {
				b = append(b, pr.Raw...)
			}
		}
		return b
	}
	want := snapshot()
	// A graph's records share backing slices: appends on one node's
	// lists or images must reallocate, never write into a neighbour.
	for i := range nodes {
		n := &nodes[i]
		_ = append(n.Deps, -1, -1)
		_ = append(n.Params, ParamRecord{Raw: []byte{0xEE}})
		for _, pr := range n.Params {
			_ = append(pr.Raw, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
		}
		if !bytes.Equal(snapshot(), want) {
			t.Fatalf("appending to analyzed node %d's records changed the graph", i)
		}
	}
}
