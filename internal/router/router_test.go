package router

import "testing"

// TestLeastLoadedPrefersEmptiest: queue depth alone decides, ties go
// to the lowest instance id.
func TestLeastLoadedPrefersEmptiest(t *testing.T) {
	p := &LeastLoaded{}
	cands := []Candidate{
		{ID: 5, QueueDepth: 3},
		{ID: 2, QueueDepth: 1},
		{ID: 9, QueueDepth: 1},
	}
	if got := Rank(p, cands)[0]; got != 1 {
		t.Fatalf("Rank head = %d (id %d), want index 1 (id 2)", got, cands[got].ID)
	}
}

// TestScoredWeighsAllSignals: with equal queues, the composite policy
// must prefer the warm, roomy, fast candidate.
func TestScoredWeighsAllSignals(t *testing.T) {
	p := &Scored{}
	cold := Candidate{ID: 0, QueueDepth: 2, KVHeadroom: 0.1, Locality: 0, PredTTFT: 0.5}
	warm := Candidate{ID: 1, QueueDepth: 2, KVHeadroom: 0.9, Locality: 1, PredTTFT: 0.1}
	if p.Score(warm) <= p.Score(cold) {
		t.Fatalf("warm candidate scored %v, cold %v", p.Score(warm), p.Score(cold))
	}
	// Queue depth dominates the soft signals: a deep queue loses to an
	// empty one even with perfect locality.
	deep := Candidate{ID: 0, QueueDepth: 5, KVHeadroom: 1, Locality: 1}
	empty := Candidate{ID: 1}
	if p.Score(deep) >= p.Score(empty) {
		t.Fatalf("deep queue scored %v, empty %v", p.Score(deep), p.Score(empty))
	}
}

// TestPickTieBreaksByLowestID pins the deterministic contract: exact
// score ties resolve to the lowest instance id regardless of slice
// order, so the dispatcher's pick (the head of Rank) is that id.
func TestPickTieBreaksByLowestID(t *testing.T) {
	p := &LeastLoaded{}
	cands := []Candidate{
		{ID: 7, QueueDepth: 2},
		{ID: 3, QueueDepth: 2},
		{ID: 11, QueueDepth: 2},
	}
	if got := Rank(p, cands)[0]; cands[got].ID != 3 {
		t.Fatalf("tie went to id %d, want 3", cands[got].ID)
	}
	if got := Rank(p, nil); len(got) != 0 {
		t.Fatalf("empty slate ranked %v", got)
	}
}

// TestRankOrdersDeterministically: full ordering is descending score
// with ascending-id tie-breaks, stable across input permutations.
func TestRankOrdersDeterministically(t *testing.T) {
	p := &LeastLoaded{}
	cands := []Candidate{
		{ID: 4, QueueDepth: 1},
		{ID: 1, QueueDepth: 0},
		{ID: 2, QueueDepth: 1},
		{ID: 0, QueueDepth: 3},
	}
	order := Rank(p, cands)
	wantIDs := []int{1, 2, 4, 0}
	if len(order) != len(wantIDs) {
		t.Fatalf("rank length %d, want %d", len(order), len(wantIDs))
	}
	for i, idx := range order {
		if cands[idx].ID != wantIDs[i] {
			t.Fatalf("rank position %d is id %d, want %d", i, cands[idx].ID, wantIDs[i])
		}
	}
	// Permuting the input must not change the ranked id sequence.
	perm := []Candidate{cands[3], cands[2], cands[1], cands[0]}
	order2 := Rank(p, perm)
	for i, idx := range order2 {
		if perm[idx].ID != wantIDs[i] {
			t.Fatalf("permuted rank position %d is id %d, want %d", i, perm[idx].ID, wantIDs[i])
		}
	}
}

func TestParse(t *testing.T) {
	for _, name := range []string{"", "fifo"} {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p != nil {
			t.Fatalf("Parse(%q) = %v, want nil (legacy dispatch)", name, p)
		}
	}
	for _, name := range []string{"leastloaded", "score"} {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Parse(%q) = %q", name, p.Name())
		}
	}
	if _, err := Parse("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
