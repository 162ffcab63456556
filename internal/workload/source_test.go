package workload

import (
	"testing"
	"time"
)

// TestPoissonSourceMatchesGenerate pins the contract the streaming
// scale path rests on: pulling a Poisson source yields exactly the
// trace Generate materializes at the same config.
func TestPoissonSourceMatchesGenerate(t *testing.T) {
	cfg := TraceConfig{Seed: 11, RPS: 40, Duration: 30 * time.Second}
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPoisson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d requests, generated %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d: streamed %+v, generated %+v", i, got[i], want[i])
		}
	}
	// Exhausted source stays exhausted.
	if _, ok := src.Next(); ok {
		t.Fatal("source yielded past exhaustion")
	}
}

func TestBurstySourceMatchesGenerateBursty(t *testing.T) {
	cfg := BurstConfig{
		Seed: 5, BaseRPS: 10, BurstRPS: 80,
		Period: 10 * time.Second, BurstLen: 2 * time.Second,
		Duration: 60 * time.Second,
	}
	want, err := GenerateBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d requests, generated %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d: streamed %+v, generated %+v", i, got[i], want[i])
		}
	}
}

func TestSliceSource(t *testing.T) {
	reqs := []Request{{ID: 0, Arrival: 0, PromptTokens: 1, OutputTokens: 1}, {ID: 1, Arrival: time.Second, PromptTokens: 2, OutputTokens: 2}}
	got, err := Collect(NewSlice(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Fatalf("Collect = %+v", got)
	}
}
