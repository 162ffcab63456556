// Command medusa-offline runs Medusa's offline phase — the capturing
// stage and the analysis stage — for one model or the whole zoo, and
// reports the materialization inventory (the counterpart of the
// artifact's `scripts/serverless_llm.py --offline` step).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/replicate"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
)

func main() {
	name := flag.String("model", "", "model name (e.g. \"Qwen1.5-4B\"); empty runs the full zoo")
	parallel := flag.Int("parallel", 0, "offline phases to run concurrently (0 = GOMAXPROCS); models are independent, output order is stable")
	templates := flag.Bool("templates", false, "after the offline phases, factor the artifacts into shared per-family templates plus per-model deltas (wire format v3) and report the registry footprint")
	flag.Parse()

	var configs []model.Config
	if *name == "" {
		configs = model.Zoo()
	} else {
		cfg, err := model.ByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		configs = []model.Config{cfg}
	}

	// Fan the per-model offline phases out across the pool (seeds are
	// fixed per model index, so results match a sequential run), then
	// report in zoo order.
	type outcome struct {
		line  string
		stats string
		err   error
		name  string
		art   *medusa.Artifact
		bytes uint64
	}
	store := storage.NewStore(storage.DefaultArray())
	// An outcome carries its own error, so Run cannot fail.
	outs, _ := replicate.Run(len(configs), *parallel, func(i int) (outcome, error) {
		cfg := configs[i]
		clock := vclock.New()
		art, report, err := engine.RunOffline(engine.OfflineOptions{
			Model: cfg, Store: store, Seed: int64(1000 + i), Clock: clock,
		})
		if err != nil {
			return outcome{err: err, name: cfg.Name}, nil
		}
		stats := art.Stats()
		return outcome{
			name: cfg.Name,
			art:  art, bytes: report.ArtifactBytes,
			line: fmt.Sprintf("%-14s %12.2f %12.2f %12.2f %10d %8.2f\n",
				cfg.Name,
				report.CaptureStageDuration.Seconds(),
				report.AnalysisDuration.Seconds(),
				report.Total().Seconds(),
				report.TotalNodes,
				float64(report.ArtifactBytes)/(1<<20)),
			stats: fmt.Sprintf("    params: %d pointers, %d constants; %d kernels; %d permanent buffers; stored at %q\n",
				stats.Pointers, stats.Constants, len(art.Kernels), len(art.Permanent), report.ArtifactKey),
		}, nil
	})

	fmt.Printf("%-14s %12s %12s %12s %10s %8s\n",
		"model", "capturing(s)", "analysis(s)", "total(s)", "nodes", "MB")
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "error: %s: %v\n", o.name, o.err)
			os.Exit(1)
		}
		fmt.Print(o.line)
		fmt.Print(o.stats)
	}

	if !*templates {
		return
	}
	// Template factoring: one shared template per architecture family,
	// every artifact re-encoded as a v3 delta against it. Both halves
	// land in the store — templates under engine.TemplateKey, deltas
	// replacing the self-contained artifacts — and the summary is the
	// registry operator's view: what the fleet's artifact storage
	// shrinks to.
	arts := make([]*medusa.Artifact, len(configs))
	for i, o := range outs {
		arts[i] = o.art
	}
	clock := vclock.New()
	fleet, err := engine.BuildFleetTemplates(store, clock, configs, arts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("\n%-14s %-10s %12s %12s %8s\n", "model", "family", "full KB", "delta KB", "ratio")
	var fullTotal, sharedTotal uint64
	for i, cfg := range configs {
		delta, err := arts[i].EncodeDelta(fleet[cfg.Family])
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
		store.Put(clock, engine.ArtifactKey(cfg.Name), delta)
		fullTotal += outs[i].bytes
		sharedTotal += uint64(len(delta))
		fmt.Printf("%-14s %-10s %12.1f %12.1f %7.1fx\n",
			cfg.Name, cfg.Family,
			float64(outs[i].bytes)/1024, float64(len(delta))/1024,
			float64(outs[i].bytes)/float64(len(delta)))
	}
	fams := make([]model.Family, 0, len(fleet))
	for fam := range fleet {
		fams = append(fams, fam)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
	for _, fam := range fams {
		sz := uint64(len(fleet[fam].Encode()))
		sharedTotal += sz
		fmt.Printf("%-14s %-10s %12s %12.1f %8s\n",
			"template", fam, "-", float64(sz)/1024, "-")
	}
	fmt.Printf("registry: %.2f MB self-contained -> %.2f MB templates+deltas (%.1fx dedup)\n",
		float64(fullTotal)/(1<<20), float64(sharedTotal)/(1<<20),
		float64(fullTotal)/float64(sharedTotal))
}
