// Command medusa-simulate runs the serverless cluster simulation for
// one (model, strategy, workload) combination and prints latency
// statistics — the building block behind Figures 10 and 11. With
// -trace it also writes the run's span set as Chrome trace-event JSON
// (loadable in Perfetto, one track per instance); with -phases it adds
// a per-strategy cold-start phase breakdown whose per-phase sums equal
// the end-to-end cold-start durations exactly.
//
// With -batch-tokens N (N > 0) instances serve with iteration-level
// continuous batching on a paged KV cache (-kv-blocks,
// -chunked-prefill): per-token completion events make TTFT and TPOT
// first-class, and KV exhaustion preempts the lowest-id sequence for
// recompute-on-resume.
//
// With -nodes N (N > 0) the command switches to the multi-node fleet
// simulator: each node fronts the shared artifact registry with a
// tiered cache (-cache-ram/-cache-ssd MiB, -cache-policy
// lru|lfu|costaware) and cold-starting instances are placed by a
// locality-aware scorer (-locality). -models co-locates several
// deployments sharing the fleet under Zipf popularity (-zipf).
//
// The shared flag surface (workload, serving, batching and cluster
// knobs) is declared once in internal/cliconfig.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/medusa-repro/medusa/internal/cliconfig"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/prof"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

func main() {
	v := cliconfig.Register(flag.CommandLine)
	slo := flag.Duration("slo", time.Second, "TTFT SLO threshold to report attainment against")
	tracePath := flag.String("trace", "", "write the run's spans as Chrome trace-event JSON to this file")
	phases := flag.Bool("phases", false, "print per-strategy cold-start phase breakdowns (runs every paper strategy)")
	requestsIn := flag.String("requests", "", "read the request trace from a JSONL file instead of generating one")
	requestsOut := flag.String("requests-out", "", "write the generated request trace to a JSONL file for replay")
	faultsSpec := flag.String("faults", "", "fault plan: preset name (none | mild | heavy | crash) or path to a plan JSON file")
	reps := flag.Int("reps", 1, "independent-seed replications; > 1 prints per-rep stats plus mean ± 95% CI")
	parallel := flag.Bool("parallel", false, "run replications on a worker pool (one per core); output is identical either way")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fail := func(err error) {
		stopProf()
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}()
	if *reps < 1 {
		fail(fmt.Errorf("-reps must be ≥ 1, got %d", *reps))
	}
	baseTC := v.TraceConfig()
	var plan *faults.Plan
	if *faultsSpec != "" {
		p, err := faults.LoadPlan(*faultsSpec)
		if err != nil {
			fail(err)
		}
		plan = &p
	}
	if v.Nodes > 0 {
		if err := runCluster(v, baseTC, *tracePath, plan, *reps, *parallel); err != nil {
			fail(err)
		}
		return
	}
	cfg, err := model.ByName(v.Model)
	if err != nil {
		fail(err)
	}
	strategy, err := engine.ParseStrategy(v.Strategy)
	if err != nil {
		fail(err)
	}
	store := storage.NewStore(storage.DefaultArray())

	// artOnce runs the offline phase at most once, caching the artifact
	// across the strategies that need it.
	var cachedArt *medusa.Artifact
	var cachedArtBytes uint64
	artOnce := func() (*medusa.Artifact, uint64, error) {
		if cachedArt != nil {
			return cachedArt, cachedArtBytes, nil
		}
		fmt.Println("running offline phase (artifact not cached)...")
		art, report, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Store: store, Seed: 7})
		if err != nil {
			return nil, 0, err
		}
		cachedArt, cachedArtBytes = art, report.ArtifactBytes
		return cachedArt, cachedArtBytes, nil
	}
	// buildConfig assembles a cluster config for one strategy.
	buildConfig := func(s engine.Strategy) (serverless.Config, error) {
		sc := serverless.Config{
			Model: cfg, Strategy: s, Store: store,
			NumGPUs: v.GPUs, Seed: 1,
			Scheduler: v.SchedulerConfig(),
			Workload:  v.WorkloadConfig(),
			Faults:    serverless.FaultSpec{Plan: plan},
		}
		if s.NeedsArtifact() {
			art, size, err := artOnce()
			if err != nil {
				return sc, err
			}
			sc.Cache = serverless.CacheSpec{Artifact: art, ArtifactBytes: size}
		}
		return sc, nil
	}

	if *reps > 1 {
		if *requestsIn != "" || *requestsOut != "" || *tracePath != "" || *phases {
			fail(fmt.Errorf("-reps > 1 is incompatible with -requests, -requests-out, -trace and -phases"))
		}
		if strategy.NeedsArtifact() {
			// Warm the artifact cache before the fan-out; replication
			// workers then share it read-only.
			if _, _, err := artOnce(); err != nil {
				fail(err)
			}
		}
		fmt.Printf("model=%s strategy=%s rps=%.1f duration=%ds reps=%d parallel=%v\n",
			cfg.Name, strategy, v.RPS, v.DurationSec, *reps, *parallel)
		if err := runServerlessReps(
			func() (serverless.Config, error) { return buildConfig(strategy) },
			baseTC, *reps, *parallel); err != nil {
			fail(err)
		}
		return
	}

	var reqs []workload.Request
	if *requestsIn != "" {
		f, err := os.Open(*requestsIn)
		if err != nil {
			fail(err)
		}
		reqs, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		var err error
		reqs, err = workload.Generate(baseTC)
		if err != nil {
			fail(err)
		}
	}
	if *requestsOut != "" {
		f, err := os.Create(*requestsOut)
		if err != nil {
			fail(err)
		}
		if err := workload.WriteTrace(f, reqs); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("request trace written to %s (%d requests)\n", *requestsOut, len(reqs))
	}

	var tracer *obs.Tracer
	sc, err := buildConfig(strategy)
	if err != nil {
		fail(err)
	}
	if *tracePath != "" {
		tracer = obs.NewTracer()
		sc.Tracer = tracer
	}
	res, err := serverless.Run(sc, reqs)
	if err != nil {
		fail(err)
	}
	fmt.Printf("model=%s strategy=%s rps=%.1f duration=%ds requests=%d\n",
		cfg.Name, strategy, v.RPS, v.DurationSec, len(reqs))
	fmt.Printf("  completed:      %d\n", res.Completed)
	fmt.Printf("  cold starts:    %d (peak instances %d)\n", res.ColdStarts, res.PeakInstances)
	if plan != nil && !plan.Zero() {
		fmt.Printf("  degraded:       %d cold starts fell back to vanilla (see FAILURES.md)\n", res.Degraded)
	}
	fmt.Printf("  throughput:     %.2f req/s\n", res.Throughput)
	fmt.Printf("  TTFT p50/p99:   %.3fs / %.3fs\n", res.TTFT.P50().Seconds(), res.TTFT.P99().Seconds())
	fmt.Printf("  E2E  p50/p99:   %.3fs / %.3fs\n", res.E2E.P50().Seconds(), res.E2E.P99().Seconds())
	if res.TPOT != nil {
		fmt.Printf("  TPOT p50/p99:   %.1fms / %.1fms (%d preemptions)\n",
			float64(res.TPOT.P50().Microseconds())/1000, float64(res.TPOT.P99().Microseconds())/1000,
			res.Preemptions)
	}
	fmt.Printf("  TTFT ≤ %v:      %.1f%% of requests\n", *slo, res.TTFT.FractionBelow(*slo)*100)
	fmt.Println("\nTTFT distribution (100ms buckets):")
	fmt.Print(res.TTFT.Histogram(100*time.Millisecond, 50))

	if tracer != nil {
		if err := writeTrace(tracer, *tracePath); err != nil {
			fail(err)
		}
	}

	if *phases {
		fmt.Println("\ncold-start phase breakdown (exclusive attribution; sums are drift-free):")
		for _, s := range engine.Strategies() {
			psc, err := buildConfig(s)
			if err != nil {
				fail(err)
			}
			pres := res
			if s != strategy {
				pres, err = serverless.Run(psc, reqs)
				if err != nil {
					fail(err)
				}
			}
			fmt.Printf("\n%v (%d cold starts, end-to-end total %.3fs):\n", s, pres.ColdStarts, pres.ColdStartTotal.Seconds())
			fmt.Print(pres.ColdStartPhases.Table())
			if drift := pres.ColdStartPhases.Total() - pres.ColdStartTotal; drift != 0 {
				fail(fmt.Errorf("phase attribution drifted by %v for %v", drift, s))
			}
		}
	}
}

// writeTrace writes the run's spans as Chrome trace-event JSON.
func writeTrace(tracer *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nChrome trace written to %s (%d spans, %d tracks) — load at ui.perfetto.dev\n",
		path, tracer.Len(), len(tracer.Tracks()))
	return nil
}
