package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// poolOutcome renders everything the single-pool and the one-node fleet
// runs must agree on: per-deployment latency, completion and cold-start
// statistics plus the pool-wide GPU time and makespan.
func poolOutcome(names []string, deps []poolDep, gpuSeconds float64, makespan time.Duration) string {
	var b strings.Builder
	for i, d := range deps {
		fmt.Fprintf(&b, "%s: ttft p50 %v p99 %v e2e p50 %v p99 %v completed %d cold_starts %d total %v\n",
			names[i], d.ttft.P50(), d.ttft.P99(), d.e2e.P50(), d.e2e.P99(),
			d.completed, d.coldStarts, d.csTotal)
		for _, p := range sortedPhases(d.phases) {
			fmt.Fprintf(&b, "  phase %s %v\n", p, d.phases.Duration(p))
		}
	}
	fmt.Fprintf(&b, "gpu_seconds %.6f makespan %v\n", gpuSeconds, makespan)
	return b.String()
}

// poolDep is the per-deployment slice of poolOutcome.
type poolDep struct {
	ttft, e2e             *metrics.Sample
	completed, coldStarts int
	csTotal               time.Duration
	phases                *obs.PhaseBreakdown
}

// TestPoolIsOneNodeFleet pins that the paper's single GPU pool is a
// degenerate fleet: one node, the pool's GPUs and warm containers, no
// artifact fetch. serverless.RunMulti and a one-node cluster.Run must
// agree exactly on every cell, including runs where GPU contention and
// a short idle timeout force repeated cold starts.
func TestPoolIsOneNodeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("eight paired simulations")
	}
	reqs := genTrace(t, 11, 12, 15)
	for _, batched := range []bool{false, true} {
		for _, warm := range []int{0, 1} {
			for _, strategies := range [][2]engine.Strategy{
				{engine.StrategyVLLM, engine.StrategyVLLM},
				{engine.StrategyNoGraph, engine.StrategyVLLM},
			} {
				name := fmt.Sprintf("batched=%v/warm=%d/%v+%v", batched, warm, strategies[0], strategies[1])
				t.Run(name, func(t *testing.T) {
					mkDeps := func() []serverless.Deployment {
						var deps []serverless.Deployment
						for i, m := range []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B"} {
							dcfg := medusaDeployment(t, m, int64(7+i))
							dcfg.Strategy = strategies[i]
							dcfg.Cache = serverless.CacheSpec{}
							dcfg.Scheduler.IdleTimeout = 300 * time.Millisecond
							dcfg.Scheduler.InstanceTarget = 4
							dcfg.Workload.FollowUp = &serverless.FollowUpModel{
								Probability: 0.4, ThinkTime: 2 * time.Second, MaxTurns: 3,
							}
							if batched {
								dcfg.Scheduler.Batch = sched.Params{BatchTokens: 256, ChunkedPrefill: true}
							}
							deps = append(deps, serverless.Deployment{
								Name: m, Config: dcfg, Requests: reqs[i*len(reqs)/2 : (i+1)*len(reqs)/2],
							})
						}
						return deps
					}
					pool, err := serverless.RunMulti(serverless.MultiConfig{
						NumGPUs: 3, WarmContainers: warm, Deployments: mkDeps(),
					})
					if err != nil {
						t.Fatal(err)
					}
					fleet, err := Run(Config{
						Nodes: 1, GPUsPerNode: 3, WarmContainersPerNode: warm, Deployments: mkDeps(),
					})
					if err != nil {
						t.Fatal(err)
					}
					names := []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B"}
					var pd, fd []poolDep
					for _, r := range pool.PerDeployment {
						pd = append(pd, poolDep{r.TTFT, r.E2E, r.Completed, r.ColdStarts, r.ColdStartTotal, r.ColdStartPhases})
					}
					for _, r := range fleet.PerDeployment {
						fd = append(fd, poolDep{r.TTFT, r.E2E, r.Completed, r.ColdStarts, r.ColdStartTotal, r.ColdStartPhases})
					}
					want := poolOutcome(names, pd, pool.GPUSeconds, pool.Makespan)
					got := poolOutcome(names, fd, fleet.GPUSeconds, fleet.Makespan)
					if got != want {
						t.Fatalf("one-node fleet diverges from the pool:\n--- pool\n%s--- fleet\n%s", want, got)
					}
					if pool.TotalColdStarts < 8 {
						t.Fatalf("only %d cold starts: the cell does not exercise relaunching", pool.TotalColdStarts)
					}
				})
			}
		}
	}
}
