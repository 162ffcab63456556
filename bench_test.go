// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per exhibit, plus the design-choice ablations listed
// in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment (offline phases are
// cached across benchmarks within the process) and reports the
// exhibit's headline numbers as custom metrics.
package medusa_test

import (
	"testing"

	"github.com/medusa-repro/medusa/internal/experiments"
	"github.com/medusa-repro/medusa/internal/model"
)

// benchCtx shares offline artifacts across benchmarks.
var benchCtx = experiments.NewContext()

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(benchCtx, id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for name, v := range r.Metrics {
				b.ReportMetric(v, name)
			}
			if testing.Verbose() {
				b.Log("\n" + r.Render())
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: model parameter sizes and CUDA
// graph node counts (139364 total across the zoo).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1: the Qwen1.5-4B cold-start
// timeline (runtime init / loading / first token).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFigure2 regenerates Figure 2: the loading-phase breakdown
// across the ten models.
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure3 regenerates Figure 3: CUDA-graph acceleration of
// inference latency (up to ≈2.4×).
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure7 regenerates Figure 7: loading-phase and cold-start
// latency for vLLM / vLLM+ASYNC / Medusa across the zoo.
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8 regenerates Figure 8: the stage-level breakdown of
// the three strategies on Qwen1.5-4B.
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9 regenerates Figure 9: offline-phase overhead
// (capturing + analysis) per model.
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates Figure 10: p99 TTFT under ShareGPT
// traces at RPS 2 and 10 for the four strategies.
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11 regenerates Figure 11: p99 TTFT versus achieved
// throughput as offered load sweeps past saturation.
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkAblationIndexMatching contrasts trace-based backward
// matching with naive first-match under allocator address reuse (§4.1).
func BenchmarkAblationIndexMatching(b *testing.B) { runExperiment(b, "ablation-index") }

// BenchmarkAblationCopyFree quantifies what copy-free buffer content
// restoration saves over dumping all referenced buffers (§4.3).
func BenchmarkAblationCopyFree(b *testing.B) { runExperiment(b, "ablation-copyfree") }

// BenchmarkAblationKernelResolve reports the dlsym-vs-hidden kernel
// split behind the triggering-kernels design (§5).
func BenchmarkAblationKernelResolve(b *testing.B) { runExperiment(b, "ablation-resolve") }

// BenchmarkAblationTriggering shows restoration failing without
// triggering-kernels and succeeding with them (§5.2).
func BenchmarkAblationTriggering(b *testing.B) { runExperiment(b, "ablation-trigger") }

// BenchmarkExtCheckpoint compares Medusa with the full
// checkpoint/restore baseline (§9): restore latency vs persisted bytes.
func BenchmarkExtCheckpoint(b *testing.B) { runExperiment(b, "ext-checkpoint") }

// BenchmarkExtMultiGPU exercises tensor-parallel cold starts with
// per-rank materialization (§8 future work).
func BenchmarkExtMultiGPU(b *testing.B) { runExperiment(b, "ext-multigpu") }

// BenchmarkExtDeferred quantifies §2.4's deferred-capture strawman
// against Medusa's elimination of the capture stage.
func BenchmarkExtDeferred(b *testing.B) { runExperiment(b, "ext-deferred") }

// BenchmarkExtSensitivity perturbs the calibrated cost model and
// verifies the headline reduction survives.
func BenchmarkExtSensitivity(b *testing.B) { runExperiment(b, "ext-sensitivity") }

// BenchmarkExtCaptureSizes sweeps capture-size policies, trading
// capture/restore cost against padded-dispatch decode latency.
func BenchmarkExtCaptureSizes(b *testing.B) { runExperiment(b, "ext-capturesizes") }

// BenchmarkExtHotSpare quantifies §2.4's economics: hot spares per
// model vs scale-to-zero on a shared multi-model cluster.
func BenchmarkExtHotSpare(b *testing.B) { runExperiment(b, "ext-hotspare") }

// BenchmarkOfflineZooWallclock measures the wall-clock (not simulated)
// cost of running the offline phase for the whole ten-model zoo through
// the parallel prefetch path — the fleet-style sweep Figure 9 and
// Table 1 perform. A fresh context per iteration defeats the artifact
// cache so every model's offline phase actually runs.
func BenchmarkOfflineZooWallclock(b *testing.B) {
	zoo := model.Zoo()
	for i := 0; i < b.N; i++ {
		c := experiments.NewContext()
		if err := c.PrefetchArtifacts(zoo); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(zoo)), "models/op")
}
