package cuda

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// sameNode reports whether two nodes carry equal data.
func sameNode(a, b *Node) bool {
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

// checkNoAliasing appends to every slice of every node of g in turn —
// each param image, the image list, the size list and the dependency
// list — and fails if any other node's data changed. Slab-carved
// sub-slices are capacity-capped, so each append must reallocate
// instead of writing into a neighbour.
func checkNoAliasing(t *testing.T, g *Graph) {
	t.Helper()
	nodes := g.Nodes()
	want := make([]*Node, len(nodes))
	for i, n := range nodes {
		want[i] = n.Clone()
	}
	for i, n := range nodes {
		for j := range n.Params {
			_ = append(n.Params[j], 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
		}
		_ = append(n.Params, []byte{0xEE})
		_ = append(n.ParamSizes, -1, -1)
		_ = append(n.Deps, -1, -1)
		for k, m := range nodes {
			if !sameNode(m, want[k]) {
				t.Fatalf("appending to node %d's data changed node %d", i, k)
			}
		}
	}
}

// captureMixed captures a graph on p over two streams with event edges,
// so nodes carry zero, one and two dependencies and two parameter
// layouts.
func captureMixed(t *testing.T, p *Process, launches int) *Graph {
	t.Helper()
	s1, s2 := p.NewStream(), p.NewStream()
	d := mustMalloc(t, p, 64)
	add := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	scale := []Value{PtrValue(d), PtrValue(d), F32Value(1.5), U32Value(4)}
	if err := p.Launch(s1, "vec_add_f32", add); err != nil { // warm-up
		t.Fatal(err)
	}
	if err := s1.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < launches; i++ {
		s, name, args := s1, "vec_add_f32", add
		if i%3 == 1 {
			s, name, args = s2, "vec_scale_f32", scale
		}
		if i%5 == 0 {
			ev := p.NewEvent()
			s1.RecordEvent(ev)
			s2.WaitEvent(ev)
		}
		if err := p.Launch(s, name, args); err != nil {
			t.Fatal(err)
		}
	}
	g, err := s1.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCapturedNodesDoNotAlias(t *testing.T) {
	p := newProc(t, 21)
	// The first capture grows through several fresh chunks of every
	// slab array; the second starts from chunks sized by the first and
	// overflows them.
	for _, launches := range []int{300, 340} {
		g := captureMixed(t, p, launches)
		twoDeps := 0
		for _, n := range g.Nodes() {
			if len(n.Deps) == 2 {
				twoDeps++
			}
		}
		if twoDeps == 0 {
			t.Fatal("fixture has no node with two dependencies")
		}
		checkNoAliasing(t, g)
		if err := g.Validate(); err != nil {
			t.Fatalf("graph invalid after the appends: %v", err)
		}
	}
}

func TestCloneOfSlabNodeIsDeep(t *testing.T) {
	g := captureMixed(t, newProc(t, 22), 8)
	n := g.Nodes()[3]
	want := n.Clone()
	c := n.Clone()
	c.Params[0][0] ^= 0xFF
	c.ParamSizes[0] = 99
	c.Deps[0] = 99
	if !sameNode(n, want) {
		t.Fatal("Clone of a slab node shares backing storage")
	}
}

// referenceTopoOrder is the FIFO Kahn the CSR TopoOrder replaced:
// per-node successor slices grown by append.
func referenceTopoOrder(g *Graph) ([]int, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, node := range g.nodes {
		for _, d := range node.Deps {
			succ[d] = append(succ[d], node.ID)
			indeg[node.ID]++
		}
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cuda: graph has a dependency cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// randomDAG builds a DAG over a random permutation of node IDs, so
// dependencies point both to lower and to higher IDs; duplicate edges
// occur, as they do in captures.
func randomDAG(rng *rand.Rand, n int) *Graph {
	perm := rng.Perm(n)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{ID: i}
	}
	for i := 1; i < n; i++ {
		for k := rng.Intn(4); k > 0; k-- {
			from := perm[rng.Intn(i)]
			nodes[perm[i]].Deps = append(nodes[perm[i]].Deps, from)
		}
	}
	return NewGraph(nodes)
}

func TestTopoOrderMatchesReferenceKahn(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, int(size%80))
		got, err := g.TopoOrder()
		want, werr := referenceTopoOrder(g)
		if err != nil || werr != nil || !slices.Equal(got, want) {
			return false
		}
		if len(g.nodes) < 2 {
			return true
		}
		// Tie two distinct nodes into a two-node cycle.
		x := rng.Intn(len(g.nodes))
		y := (x + 1 + rng.Intn(len(g.nodes)-1)) % len(g.nodes)
		g.nodes[x].Deps = append(g.nodes[x].Deps, y)
		g.nodes[y].Deps = append(g.nodes[y].Deps, x)
		_, err = g.TopoOrder()
		_, werr = referenceTopoOrder(g)
		return err != nil && werr != nil && err.Error() == werr.Error()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// captureN captures n vec_add launches on one stream.
func captureN(t testing.TB, n int) (*Process, *Graph) {
	t.Helper()
	p := NewProcess(testRuntime(t), vclock.New(), Config{Seed: 1, Mode: gpu.CostOnly})
	s := p.NewStream()
	d := mustMalloc(t, p, 64)
	args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	if err := p.Launch(s, "vec_add_f32", args); err != nil { // warm-up
		t.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := p.Launch(s, "vec_add_f32", args); err != nil {
			t.Fatal(err)
		}
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

func TestInstantiateAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	allocs := func(n int) float64 {
		p, g := captureN(t, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := g.Instantiate(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(1024)
	if small != large {
		t.Fatalf("Instantiate makes %v allocs for 16 nodes but %v for 1024; want a constant", small, large)
	}
}

func TestCaptureRecordAllocsPerLaunch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const launches = 1024
	p := NewProcess(testRuntime(t), vclock.New(), Config{Seed: 1, Mode: gpu.CostOnly})
	s := p.NewStream()
	d := mustMalloc(t, p, 64)
	args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	if err := p.Launch(s, "vec_add_f32", args); err != nil { // warm-up
		t.Fatal(err)
	}
	// One run is a whole capture: begin, record every launch, end (which
	// validates), so chunk and node-list growth are amortized over it.
	total := testing.AllocsPerRun(5, func() {
		if err := s.BeginCapture(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < launches; i++ {
			if err := p.Launch(s, "vec_add_f32", args); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.EndCapture(); err != nil {
			t.Fatal(err)
		}
	})
	if per := total / launches; per > 1 {
		t.Fatalf("capture makes %.3f allocs per launch (%v per %d-launch capture); want at most 1", per, total, launches)
	}
}
