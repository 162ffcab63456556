package serverless

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
)

// fingerprint is everything a simulator reads from a profile.
type fingerprint struct {
	ColdStart time.Duration
	Stages    []string
	KVPerTok  time.Duration
	MaxKVTok  int
	Prefill   map[int]time.Duration
	Decode    map[int]time.Duration
}

// profileFingerprint builds cfg's profile without a cache and reads
// every cost the simulators ask for. reverse queries in the opposite
// order, so sharing one entry across runs that ask in different orders
// is covered too.
func profileFingerprint(t *testing.T, cfg Config, reverse bool) fingerprint {
	t.Helper()
	pr, err := NewProfile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint{
		ColdStart: pr.p.coldStart,
		KVPerTok:  pr.p.kvPerTok,
		MaxKVTok:  pr.p.maxKVTok,
		Prefill:   map[int]time.Duration{},
		Decode:    map[int]time.Duration{},
	}
	for _, st := range pr.p.timeline.Stages() {
		fp.Stages = append(fp.Stages, fmt.Sprintf("%s %v-%v", st.Name, st.Start, st.End))
	}
	lengths := []int{1, 17, 64, 300, 1024}
	sizes := model.CaptureBatchSizes()
	if reverse {
		lengths = append([]int(nil), lengths...)
		sizes = append([]int(nil), sizes...)
		for i, j := 0, len(lengths)-1; i < j; i, j = i+1, j-1 {
			lengths[i], lengths[j] = lengths[j], lengths[i]
		}
		for i, j := 0, len(sizes)-1; i < j; i, j = i+1, j-1 {
			sizes[i], sizes[j] = sizes[j], sizes[i]
		}
	}
	for _, n := range lengths {
		if fp.Prefill[n], err = pr.p.prefillDur(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range sizes {
		if fp.Decode[n], err = pr.p.decodeStep(n); err != nil {
			t.Fatal(err)
		}
	}
	return fp
}

// TestProfileSeedInvariant pins the premise of ProfileCache's key: the
// seed only places the template instance's address space, so every
// cost the simulators read is the same under any seed. It covers every
// zoo model under each shareable strategy the exhibits serve with, at
// TP 1 (with the artifact both read from storage and preloaded, as the
// cluster simulator sets it) and TP 2.
func TestProfileSeedInvariant(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One goroutine throughout, so the race detector has nothing to
		// check; it would only make the sweep ten times slower.
		t.Skip("cold-starts every zoo model many times")
	}
	seeds := []int64{1, 2, 15838}
	store := storage.NewStore(storage.DefaultArray())
	for _, m := range model.Zoo() {
		art, report, err := engine.RunOffline(engine.OfflineOptions{Model: m, Store: store, Seed: 500})
		if err != nil {
			t.Fatal(err)
		}
		var cases []Config
		for _, s := range []engine.Strategy{engine.StrategyVLLM, engine.StrategyVLLMAsync, engine.StrategyNoGraph} {
			cases = append(cases, Config{Model: m, Strategy: s, Store: store})
		}
		for _, preloaded := range []bool{false, true} {
			cases = append(cases, Config{Model: m, Strategy: engine.StrategyMedusa, Store: store,
				Cache: CacheSpec{Artifact: art, ArtifactBytes: report.ArtifactBytes, ArtifactPreloaded: preloaded}})
		}
		for _, s := range []engine.Strategy{engine.StrategyVLLM, engine.StrategyMedusa} {
			cases = append(cases, Config{Model: m, Strategy: s, Store: store, NumGPUs: 4, TPDegree: 2})
		}
		for _, cfg := range cases {
			name := fmt.Sprintf("%s/%v/tp%d/preloaded=%v", m.Name, cfg.Strategy, cfg.TPDegree, cfg.Cache.ArtifactPreloaded)
			var want fingerprint
			for i, seed := range seeds {
				cfg.Seed = seed
				got := profileFingerprint(t, cfg, i%2 == 1)
				if i == 0 {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: seed %d profile differs from seed %d:\n got %+v\nwant %+v", name, seed, seeds[0], got, want)
				}
			}
		}
	}
}

// TestProfileCacheSharesAcrossRuns checks that runs on one cache share
// one template instance per key whatever their seeds, without changing
// results; that a nil cache builds a profile per call; and that
// deferred-capture profiles are never shared.
func TestProfileCacheSharesAcrossRuns(t *testing.T) {
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	reqs := shortTrace(t, 3, 10)
	entry := func(cfg Config, seed int64) *profileEntry {
		cfg.Seed = seed
		pr, err := NewProfile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pr.p.profileEntry
	}
	run := func(cfg Config, seeds ...int64) []string {
		var out []string
		for _, seed := range seeds {
			cfg.Seed = seed
			res, err := Run(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%d %v %v", res.ColdStarts, res.TTFT.P99(), res.E2E.Mean()))
		}
		return out
	}

	if entry(base, 1) == entry(base, 1) {
		t.Error("nil cache: two calls share a profile")
	}
	uncached := run(base, 1, 2, 3)

	shared := base
	pc := NewProfileCache()
	shared.Profiles = pc
	if got := run(shared, 1, 2, 3); !reflect.DeepEqual(got, uncached) {
		t.Errorf("shared profile changed results:\n got %v\nwant %v", got, uncached)
	}
	if entry(shared, 4) != entry(shared, 5) || pc.Len() != 1 {
		t.Errorf("cache: runs of one key built %d profiles, want 1", pc.Len())
	}
	vllm := shared
	vllm.Strategy, vllm.Cache = engine.StrategyVLLM, CacheSpec{}
	run(vllm, 4, 5)
	if pc.Len() != 2 {
		t.Errorf("cache: %d profiles after a second key, want 2", pc.Len())
	}

	deferred := shared
	deferred.Strategy, deferred.Cache = engine.StrategyDeferred, CacheSpec{}
	if entry(deferred, 1) == entry(deferred, 1) || pc.Len() != 2 {
		t.Error("deferred capture: a cached profile was shared")
	}
	withCache := run(deferred, 1, 2)
	deferred.Profiles = nil
	if without := run(deferred, 1, 2); !reflect.DeepEqual(withCache, without) {
		t.Errorf("deferred capture with a cache changed results:\n got %v\nwant %v", withCache, without)
	}
}

// TestProfileCacheConcurrentBuildsOnce races many first requests for
// one key: every caller gets the one entry a single build produced.
func TestProfileCacheConcurrentBuildsOnce(t *testing.T) {
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyVLLM
	base.Profiles = NewProfileCache()
	const callers = 8
	entries := make([]*profileEntry, callers)
	var wg sync.WaitGroup
	for i := range entries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := base
			cfg.Seed = int64(i)
			pr, err := NewProfile(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := pr.p.decodeStep(i + 1); err != nil {
				t.Error(err)
			}
			entries[i] = pr.p.profileEntry
		}(i)
	}
	wg.Wait()
	if n := base.Profiles.Len(); n != 1 {
		t.Fatalf("%d profiles for %d concurrent callers of one key, want 1", n, callers)
	}
	for i, e := range entries {
		if e != entries[0] {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
}
