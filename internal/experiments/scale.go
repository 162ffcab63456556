package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/replicate"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("ext-scale", runExtScale)
}

// scaleModels is the fleet the replication sweep co-locates — the
// six smallest zoo models, so the sweep's cost is profile-dominated
// rather than artifact-dominated.
var scaleModels = []string{
	"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Qwen1.5-4B", "Llama2-7B", "Yi-6B", "Falcon-7B",
}

// extScaleReps is the sweep's replication count: enough for a
// meaningful confidence interval, small enough for the test suite.
const extScaleReps = 5

// scaleRepStats is one replication's scalar outcome.
type scaleRepStats struct {
	completed  int
	coldStarts int
	p99TTFT    time.Duration
	makespan   time.Duration
	gpuSeconds float64
}

// runExtScale exercises the scaled simulator core end to end: each
// replication streams an independently-seeded Poisson arrival process
// through a Zipf-popularity fleet (pull-based arrivals, O(active)
// request state, bounded reservoir quantiles) and the replications run
// on a worker pool. Every replication is a pure function of its index,
// so the table — and the mean ± 95% CI summary — is byte-identical
// however many workers the pool uses.
func runExtScale(c *Context) (*Report, error) {
	deps, err := c.medusaDeployments(scaleModels, serverless.Scheduler{IdleTimeout: 200 * time.Millisecond})
	if err != nil {
		return nil, err
	}

	// Replications share deps read-only: cluster.Run copies each
	// deployment before the event loop touches it.
	runRep := func(rep int) (scaleRepStats, error) {
		src, err := workload.NewPoisson(workload.TraceConfig{
			Seed: 1000 + int64(rep), RPS: 30, Duration: 40 * time.Second,
			MeanOutput: 8, MaxOutput: 16,
		})
		if err != nil {
			return scaleRepStats{}, err
		}
		arrivals, err := cluster.ZipfArrivals(src, len(deps), 43+int64(rep), 1.2)
		if err != nil {
			return scaleRepStats{}, err
		}
		res, err := cluster.Run(cluster.Config{
			Nodes: 3, Seed: 7 + int64(rep),
			Deployments: deps,
			Arrivals:    arrivals,
		})
		if err != nil {
			return scaleRepStats{}, err
		}
		_, ttft := fleetSamples(res)
		return scaleRepStats{
			completed: res.Completed, coldStarts: res.TotalColdStarts,
			p99TTFT: ttft.P99(), makespan: res.Makespan, gpuSeconds: res.GPUSeconds,
		}, nil
	}

	// workers=0: one worker per core. Determinism does not depend on
	// the worker count; TestExtScaleWorkerInvariance pins that.
	stats, err := replicate.Run(extScaleReps, 0, runRep)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "ext-scale",
		Title:  "Extension: replicated Zipf-fleet sweep on the streaming simulator core",
		Header: []string{"rep", "completed", "cold starts", "p99 TTFT (s)", "makespan (s)", "GPU-seconds"},
	}
	var p99s, colds, gpus []float64
	for rep, st := range stats {
		p99s = append(p99s, st.p99TTFT.Seconds())
		colds = append(colds, float64(st.coldStarts))
		gpus = append(gpus, st.gpuSeconds)
		r.AddRow(fmt.Sprintf("%d", rep), fmt.Sprintf("%d", st.completed),
			fmt.Sprintf("%d", st.coldStarts), secs(st.p99TTFT),
			secs(st.makespan), fmt.Sprintf("%.1f", st.gpuSeconds))
	}
	p99Mean, p99CI := metrics.MeanCI(p99s)
	coldMean, coldCI := metrics.MeanCI(colds)
	gpuMean, gpuCI := metrics.MeanCI(gpus)
	r.SetMetric("p99_ttft_mean_s", p99Mean)
	r.SetMetric("p99_ttft_ci95_s", p99CI)
	r.AddNote("across %d independent-seed replications: p99 TTFT %.3f ± %.3f s, cold starts %.1f ± %.1f, GPU-seconds %.1f ± %.1f (mean ± 95%% CI)",
		extScaleReps, p99Mean, p99CI, coldMean, coldCI, gpuMean, gpuCI)
	r.AddNote("arrivals stream through a pull-based Zipf split (no materialized trace) and replications run on a worker pool; both are byte-deterministic — medusa-simulate -reps N -parallel scales the same machinery to 10M-request runs")
	return r, nil
}
