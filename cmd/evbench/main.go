// Command evbench regenerates every table and figure of the paper's
// evaluation section (§VI) and, optionally, the ablation studies.
//
// Usage:
//
//	evbench [-quick] [-ablations] [-format text|markdown] [-out results.txt] [-progress]
//
// The default full-scale run mirrors the paper's setup (1000 human objects);
// -quick runs the same sweeps on a 200-person world in seconds.
// -cpuprofile/-memprofile capture pprof profiles of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"evmatching"
	"evmatching/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("evbench", flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "run the shrunken quick-scale sweeps")
		ablations = fs.Bool("ablations", false, "also run the ablation studies")
		outPath   = fs.String("out", "", "write results to this file as well as stdout")
		progress  = fs.Bool("progress", false, "log per-run progress to stderr")
		format    = fs.String("format", "text", "output format: text or markdown")
		runs      = fs.Int("runs", 1, "average each measurement over this many matcher seeds")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "markdown" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "evbench: memprofile:", err)
			}
		}()
	}
	cfg := evmatching.PaperExperiments()
	if *quick {
		cfg = evmatching.QuickExperiments()
	}
	cfg.Runs = *runs
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	var logw io.Writer
	if *progress {
		logw = os.Stderr
	}
	runner, err := experiments.NewRunner(cfg, logw)
	if err != nil {
		return err
	}
	ctx := context.Background()
	runFigures, runAblations := runner.RunAll, runner.RunAblations
	if *format == "markdown" {
		runFigures, runAblations = runner.RunAllMarkdown, runner.RunAblationsMarkdown
	}
	if err := runFigures(ctx, out); err != nil {
		return err
	}
	if *ablations {
		if err := runAblations(ctx, out); err != nil {
			return err
		}
	}
	return nil
}
