package serverless

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/sched"
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
// a count-driven policy is exact on the single pool: three deployments
// contend for two GPUs, so launches block on capacity and resume when
// an idle instance retires, and the run renders, counts and traces
// byte-identically to one that evaluates every tick. Cells cover both
// execution modes, fault plans and conversation follow-ups.
func TestTickSkipMatchesFullCadence(t *testing.T) {
	presets := faults.Presets()
	for _, batched := range []bool{false, true} {
		for _, preset := range []string{"mild", "crash"} {
			t.Run(fmt.Sprintf("batched=%v/%s", batched, preset), func(t *testing.T) {
				plan := presets[preset]
				run := func(scaler autoscale.Policy) string {
					tr := obs.NewTracer()
					f := poolFleet(tickSkipPool(t, batched, &plan, tr))
					f.Autoscaler = scaler
					res, err := RunFleet(f)
					if err != nil {
						t.Fatal(err)
					}
					var chrome bytes.Buffer
					if err := tr.WriteChrome(&chrome); err != nil {
						t.Fatal(err)
					}
					return batchedSummary(res) + chrome.String()
				}
				skipped, full := run(autoscale.NewReactive()), run(&fullCadence{})
				if skipped != full {
					t.Fatalf("tick skip diverges from full-cadence ticks:\n--- skipped\n%.2000s\n--- full\n%.2000s", skipped, full)
				}
			})
		}
	}
}

// tickSkipPool is a two-GPU pool shared by three deployments with short
// idle timeouts and follow-up turns, traced through tr.
func tickSkipPool(t *testing.T, batched bool, plan *faults.Plan, tr *obs.Tracer) MultiConfig {
	t.Helper()
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Scheduler.IdleTimeout = 300 * time.Millisecond
	base.Workload.FollowUp = &FollowUpModel{Probability: 0.5, ThinkTime: 500 * time.Millisecond, MaxTurns: 3}
	base.Faults = FaultSpec{Plan: plan}
	base.Tracer = tr
	if batched {
		// Room for a follow-up's grown context, tight enough to preempt.
		base.Scheduler.Batch = sched.Params{BatchTokens: 256, KVBlocks: 128, ChunkedPrefill: true}
	}
	cfg := MultiConfig{NumGPUs: 2, Faults: base.Faults}
	for i, rps := range []float64{4, 2, 1} {
		d := base
		d.Seed = int64(i + 1)
		cfg.Deployments = append(cfg.Deployments, Deployment{
			Name: fmt.Sprintf("d%d", i), Config: d, Requests: batchedTrace(t, int64(40+i), rps, 10),
		})
	}
	return cfg
}
