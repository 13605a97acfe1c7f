package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// SelfCheck is the same-code test: it runs every workload runs times, each
// in a fresh process of exe with another seed, and prints for every gated
// cell the median, the quartiles and their distance as a share of the
// median. It returns an error if any cell's spread exceeds half the
// metric's bound.
func SelfCheck(w io.Writer, exe string, runs int, seconds float64) error {
	fmt.Fprintf(w, "# evperf -selfcheck %d -seconds %g\n\n", runs, seconds)
	fmt.Fprintf(w, "%s, nproc %d, %s/%s, kernel %s\n\n", runtime.Version(), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, kernelRelease())
	fmt.Fprintf(w, "Spread is (Q3−Q1)/median over %d runs with seeds 1..%d, quartiles as Python's statistics.quantiles(n=4). A cell fails above half its bound.\n\n", runs, runs)
	fmt.Fprintln(w, "| workload | metric | median | Q1 | Q3 | spread | (max−min)/median | bound | |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	var over []string
	for _, wl := range Workloads {
		samples := make(map[string][]float64)
		for seed := 1; seed <= runs; seed++ {
			res, err := runChild(exe, wl.Name, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", wl.Name, seed, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				samples[name] = append(samples[name], v.Value)
			}
		}
		for _, m := range EndToEnd {
			xs := samples[m.Name]
			med := Median(xs)
			q1, q3 := Quartiles(xs)
			spread := (q3 - q1) / med
			lo, hi := Quantile(xs, 0), Quantile(xs, 1)
			verdict := "ok"
			// setup_s is gated on its median only, never on its spread.
			if spread > m.Bound/2 && m.Name != "setup_s" {
				verdict = "OVER"
				over = append(over, wl.Name+"/"+m.Name)
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, med, q1, q3, spread*100, (hi-lo)/med*100, m.Bound*100, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread above half the bound on %s", strings.Join(over, ", "))
	}
	return nil
}

// runChild runs one benchmark run in a fresh process and parses the JSON
// object on the last line of its output.
func runChild(exe, workload string, seed int, seconds float64) (*Result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
