// Command evperf is the repository's benchmark: one run generates a
// workload's inputs from a seed, drives the system, verifies its outputs
// and prints every metric by name with its unit, ending with one JSON line.
//
// Usage (through bench/run.sh, which builds the binaries first):
//
//	evperf -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	evperf -selfcheck <N> [-seconds <s>]
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated with spans recorded around each call into a layer, written to
// out/trace-<workload>.json, and the metrics are the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"evmatching/bench/perf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evperf:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload  = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 10, "seconds of timed work to accumulate")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run every workload N times with seeds 1..N and check the spread of each gated cell")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// run.sh builds into <bench>/out/bin; everything evperf writes stays
	// under <bench>/out.
	binDir := filepath.Dir(exe)
	outDir := filepath.Dir(binDir)
	if *selfcheck > 0 {
		return perf.SelfCheck(os.Stdout, exe, *selfcheck, *seconds)
	}
	buildS, _ := strconv.ParseFloat(os.Getenv("EVPERF_BUILD_S"), 64) // unset outside run.sh: reported as 0
	res, err := perf.Run(perf.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace != 0,
		OutDir:   outDir,
		BinDir:   binDir,
		BuildS:   buildS,
		Log:      os.Stderr,
	})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, note := range res.Notes {
		fmt.Println(note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations or checks failed", res.Failed, res.Attempted)
	}
	return nil
}
