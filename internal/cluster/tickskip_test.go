package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// fullCadence forwards to the reactive policy without declaring
// autoscale.CountDriven, so the event loop evaluates every control
// tick in full — the reference the tick skip must match.
type fullCadence struct{ r autoscale.Reactive }

func (p *fullCadence) Name() string                            { return p.r.Name() }
func (p *fullCadence) ObserveArrival(dep int, t time.Duration) { p.r.ObserveArrival(dep, t) }
func (p *fullCadence) Desired(dep int, o autoscale.Observation) int {
	return p.r.Desired(dep, o)
}

// TestTickSkipMatchesFullCadence pins that skipping control ticks under
// a count-driven policy is exact on a cached fleet: three deployments
// contend for two one-GPU nodes, so launches block on capacity and
// resume on a retirement, and under the crash plan node 1 dies
// mid-run. Each cell renders, counts and traces byte-identically to a
// run that evaluates every tick, in both execution modes, with
// conversation follow-ups.
func TestTickSkipMatchesFullCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("eight fleet simulations")
	}
	presets := faults.Presets()
	for _, batched := range []bool{false, true} {
		for _, preset := range []string{"mild", "crash"} {
			t.Run(fmt.Sprintf("batched=%v/%s", batched, preset), func(t *testing.T) {
				plan := presets[preset]
				run := func(scaler autoscale.Policy) string {
					tr := obsTracer()
					cfg := tickSkipFleet(t, batched, &plan)
					cfg.Tracer = tr.tracer
					cfg.Autoscaler = scaler
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					out := res.Render() + res.Metrics.Render()
					for _, d := range res.PerDeployment {
						out += d.Name + "\n" + d.Metrics.Render()
					}
					return out + tr.chrome(t)
				}
				skipped, full := run(autoscale.NewReactive()), run(&fullCadence{})
				if skipped != full {
					t.Fatalf("tick skip diverges from full-cadence ticks:\n--- skipped\n%.2000s\n--- full\n%.2000s", skipped, full)
				}
			})
		}
	}
}

// tickSkipFleet is two one-GPU nodes shared by three deployments with
// short idle timeouts and follow-up turns, long enough that the crash
// preset's node failure lands mid-run.
func tickSkipFleet(t *testing.T, batched bool, plan *faults.Plan) Config {
	t.Helper()
	cfg := churnConfig(artifactcache.PolicyLRU)
	cfg.GPUsPerNode = 1
	cfg.Faults = serverless.FaultSpec{Plan: plan}
	for i, name := range []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B"} {
		dcfg := idleOut(medusaDeployment(t, name, int64(i+1)), 250*time.Millisecond)
		dcfg.Workload.FollowUp = &serverless.FollowUpModel{Probability: 0.5, ThinkTime: 500 * time.Millisecond, MaxTurns: 3}
		if batched {
			dcfg.Scheduler.Batch = sched.Params{BatchTokens: 256, KVBlocks: 128, ChunkedPrefill: true}
		}
		cfg.Deployments = append(cfg.Deployments, serverless.Deployment{
			Name: fmt.Sprintf("d%d", i), Config: dcfg, Requests: genTrace(t, int64(60+i), float64(3-i), 20),
		})
	}
	return cfg
}
