// Command medusa-bench regenerates the paper's tables and figures
// against the simulated substrate.
//
// Usage:
//
//	medusa-bench -list
//	medusa-bench -exp fig7
//	medusa-bench -all
//	medusa-bench -exp fig7 -trace fig7.json -phases
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/medusa-repro/medusa/internal/experiments"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/prof"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (see -list)")
	all := flag.Bool("all", false, "run every registered experiment")
	list := flag.Bool("list", false, "list experiment ids")
	format := flag.String("format", "text", "output format: text | csv")
	outDir := flag.String("out", "", "also write each result to its results/ file in <dir> (<id>.txt; ext-fleet writes ext-fleet-sweep.txt)")
	tracePath := flag.String("trace", "", "write the cold-start spans of the run as Chrome trace-event JSON to this file")
	phases := flag.Bool("phases", false, "after running, print per-strategy cold-start phase breakdowns")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}()
	ctx := experiments.NewContext()
	if *tracePath != "" {
		ctx.Tracer = obs.NewTracer()
	}
	run := func(id string) error {
		r, err := experiments.Run(ctx, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		var rendered string
		switch *format {
		case "csv":
			rendered = r.RenderCSV()
		case "text":
			rendered = r.Render() + "\n"
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		fmt.Print(rendered)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, experiments.ResultFile(id))
			if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	switch {
	case *all:
		for _, id := range experiments.IDs() {
			if err := run(id); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
	case *exp != "":
		if err := run(*exp); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *phases {
		fmt.Println("\ncold-start phase breakdown (exclusive attribution; sums are drift-free):")
		fmt.Print(ctx.RenderPhases())
	}
	if ctx.Tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := ctx.Tracer.WriteChrome(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("\nChrome trace written to %s (%d spans, %d tracks) — load at ui.perfetto.dev\n",
			*tracePath, ctx.Tracer.Len(), len(ctx.Tracer.Tracks()))
	}
}
