package serverless_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// clusterRunner returns a function running one seeded two-deployment
// fleet (a Medusa deployment and a vLLM one, under the mild fault
// preset so the Medusa deployment also builds its vLLM fallback) on the
// given profile cache, rendering the result.
func clusterRunner(t *testing.T, pc *serverless.ProfileCache) func(seed int64) string {
	t.Helper()
	m, err := model.ByName("Qwen1.5-0.5B")
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(storage.DefaultArray())
	art, report, err := engine.RunOffline(engine.OfflineOptions{Model: m, Store: store, Seed: 500})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.TraceConfig{
		Seed: 3, RPS: 3, Duration: 10 * time.Second, MeanOutput: 16, MaxOutput: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Presets()["mild"]
	return func(seed int64) string {
		idle := serverless.Scheduler{IdleTimeout: 200 * time.Millisecond}
		res, err := cluster.Run(cluster.Config{
			Nodes: 2, Seed: seed,
			Faults: serverless.FaultSpec{Plan: &plan},
			Deployments: []serverless.Deployment{
				{Name: "medusa", Requests: reqs, Config: serverless.Config{
					Model: m, Strategy: engine.StrategyMedusa, Store: store, Seed: seed + 1, Scheduler: idle,
					Cache:    serverless.CacheSpec{Artifact: art, ArtifactBytes: report.ArtifactBytes},
					Profiles: pc,
				}},
				{Name: "vllm", Requests: reqs, Config: serverless.Config{
					Model: m, Strategy: engine.StrategyVLLM, Store: store, Seed: seed + 2, Scheduler: idle,
					Profiles: pc,
				}},
			},
		})
		if err != nil {
			t.Error(err)
			return ""
		}
		return res.Render()
	}
}

// TestClusterRunsShareProfiles checks that cluster runs on one cache
// with different seeds build each key once: the Medusa template and the
// vLLM one, which the Medusa deployment's fault fallback shares. Results
// match runs that build their own profiles.
func TestClusterRunsShareProfiles(t *testing.T) {
	seeds := []int64{1, 2, 3}
	uncached := clusterRunner(t, nil)
	var want []string
	for _, s := range seeds {
		want = append(want, uncached(s))
	}

	pc := serverless.NewProfileCache()
	cached := clusterRunner(t, pc)
	var got []string
	for _, s := range seeds {
		got = append(got, cached(s))
	}
	if n := pc.Len(); n != 2 {
		t.Errorf("%d profiles for 3 runs over 2 keys, want 2", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shared profiles changed cluster results:\n got %q\nwant %q", got, want)
	}
}

// TestConcurrentClusterRunsShareProfiles runs cluster simulations in
// parallel on one cache, as parallel replications do; under the race
// detector it also pins that the shared entries are race-free.
func TestConcurrentClusterRunsShareProfiles(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	uncached := clusterRunner(t, nil)
	want := make([]string, len(seeds))
	for i, s := range seeds {
		want[i] = uncached(s)
	}

	pc := serverless.NewProfileCache()
	cached := clusterRunner(t, pc)
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s int64) {
			defer wg.Done()
			got[i] = cached(s)
		}(i, s)
	}
	wg.Wait()
	if n := pc.Len(); n != 2 {
		t.Errorf("%d profiles for %d concurrent runs over 2 keys, want 2", n, len(seeds))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent shared runs differ from uncached runs:\n got %q\nwant %q", got, want)
	}
}
