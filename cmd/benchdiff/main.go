// Command benchdiff compares two `go test -bench` outputs and fails when a
// benchmark's time/op regresses beyond a threshold — a dependency-free
// stand-in for benchstat, so CI can gate performance without fetching tools.
//
// Usage:
//
//	benchdiff [-threshold 20] [-iqr-mult 3] [-summary summary.md] old.txt new.txt
//
// Both files hold standard `go test -bench` output (run with -count N for a
// stable median; -benchmem adds the allocs/op column, reported but not
// gated). Benchmarks present in only one file are listed and skipped:
// additions and removals are not regressions.
//
// The gate is noise-adaptive: a benchmark regresses only when its median
// time/op grew by more than max(threshold% · old median, iqr-mult · IQR(old
// samples)). The percentage term catches drift on quiet micro-benchmarks; the
// IQR term widens the allowance for end-to-end benchmarks whose -count
// samples are inherently noisy, so a wide old spread does not flake CI. Each
// row logs its effective allowance and which term chose it (pct or iqr).
// Malformed input — an empty file, a truncated Benchmark line, a benchmark
// with no ns/op samples — is an error (exit 2), never silently ignored.
//
// -summary appends the comparison as a GitHub-flavored markdown table to the
// given file (pass "$GITHUB_STEP_SUMMARY" in CI): one row per benchmark with
// its delta, its effective allowance, and — the part the plain table buries —
// which gate term (pct or iqr) decided that allowance, so a reviewer can see
// at a glance whether a pass rode on the percentage budget or on a wide old
// spread.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 20, "maximum allowed time/op regression in percent")
	iqrMult := fs.Float64("iqr-mult", 3, "noise allowance: also permit regressions up to this multiple of the old samples' IQR")
	summary := fs.String("summary", "", "append a markdown summary table to this file (CI: pass \"$GITHUB_STEP_SUMMARY\")")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold pct] [-summary file] old.txt new.txt")
		return 2
	}
	old, err := parseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	new_, err := parseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	var rows []summaryRow
	fmt.Fprintf(stdout, "%-32s %14s %14s %8s %14s %18s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allowance", "allocs/op old→new")
	for _, name := range names {
		o := old[name]
		n, ok := new_[name]
		if !ok {
			fmt.Fprintf(stdout, "%-32s %14s %14s %8s %14s (removed; not gated)\n", name, format(median(o.ns)), "-", "-", "-")
			rows = append(rows, summaryRow{name: name, oldNs: format(median(o.ns)), newNs: "-", delta: "-", allowance: "-", result: "removed (not gated)"})
			continue
		}
		oldNs, newNs := median(o.ns), median(n.ns)
		delta := (newNs - oldNs) / oldNs * 100
		// Noise-adaptive gate: allow the larger of the percentage budget and
		// iqr-mult times the old samples' interquartile range. The allowance
		// column logs each benchmark's effective gate and which term chose it,
		// so a CI failure (or a suspicious pass) is auditable from the table.
		pctAllow := *threshold / 100 * oldNs
		iqrAllow := *iqrMult * iqr(o.ns)
		allowed, chosen := pctAllow, "pct"
		if iqrAllow > pctAllow {
			allowed, chosen = iqrAllow, "iqr"
		}
		allowance := fmt.Sprintf("≤+%.1f%%(%s)", allowed/oldNs*100, chosen)
		mark, result := "", "pass"
		if newNs-oldNs > allowed {
			mark = "  REGRESSION"
			result = "REGRESSION"
			regressions++
		}
		allocs := "-"
		if len(o.allocs) > 0 && len(n.allocs) > 0 {
			allocs = fmt.Sprintf("%.0f→%.0f", median(o.allocs), median(n.allocs))
		}
		fmt.Fprintf(stdout, "%-32s %14s %14s %+7.1f%% %14s %18s%s\n", name, format(oldNs), format(newNs), delta, allowance, allocs, mark)
		rows = append(rows, summaryRow{
			name:      name,
			oldNs:     format(oldNs),
			newNs:     format(newNs),
			delta:     fmt.Sprintf("%+.1f%%", delta),
			allowance: fmt.Sprintf("≤+%.1f%%", allowed/oldNs*100),
			gateTerm:  chosen,
			result:    result,
		})
	}
	var added []string
	for name := range new_ {
		if _, ok := old[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(stdout, "%-32s %14s %14s %8s %14s (new; not gated)\n", name, "-", format(median(new_[name].ns)), "-", "-")
		rows = append(rows, summaryRow{name: name, oldNs: "-", newNs: format(median(new_[name].ns)), delta: "-", allowance: "-", result: "new (not gated)"})
	}
	if *summary != "" {
		if err := appendSummary(*summary, rows, *threshold, *iqrMult, regressions); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d benchmark(s) regressed beyond max(%.0f%%, %.1f·IQR) on time/op\n", regressions, *threshold, *iqrMult)
		return 1
	}
	return 0
}

// summaryRow is one benchmark's comparison, rendered into the markdown job
// summary. gateTerm records which allowance term (pct or iqr) set the gate —
// the audit trail the CI job summary exists to surface.
type summaryRow struct {
	name, oldNs, newNs, delta, allowance, gateTerm, result string
}

// appendSummary appends the markdown comparison table to path. Append, not
// truncate: $GITHUB_STEP_SUMMARY accumulates sections from every step of a
// job, and local callers can aggregate several comparisons the same way.
func appendSummary(path string, rows []summaryRow, threshold, iqrMult float64, regressions int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := writeSummary(f, rows, threshold, iqrMult, regressions); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSummary renders the markdown table: per-benchmark medians, delta, the
// effective allowance with the gate term that chose it, and the verdict.
func writeSummary(w io.Writer, rows []summaryRow, threshold, iqrMult float64, regressions int) error {
	verdict := "no time/op regressions"
	if regressions > 0 {
		verdict = fmt.Sprintf("**%d benchmark(s) regressed**", regressions)
	}
	if _, err := fmt.Fprintf(w, "### benchdiff: %s\n\nGate: median time/op growth ≤ max(%.0f%% · old, %.1f·IQR(old)); the *gate term* column names which bound applied.\n\n| benchmark | old ns/op | new ns/op | delta | allowance | gate term | result |\n|---|---:|---:|---:|---:|:-:|---|\n", verdict, threshold, iqrMult); err != nil {
		return err
	}
	for _, r := range rows {
		term := r.gateTerm
		if term == "" {
			term = "-"
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s |\n",
			r.name, r.oldNs, r.newNs, r.delta, r.allowance, term, r.result); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// samples collects one benchmark's repeated measurements.
type samples struct {
	ns     []float64
	allocs []float64
}

func parseFile(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// parse reads `go test -bench` output: one line per run, of the form
//
//	BenchmarkName-8   100   5325768 ns/op   751428 B/op   2397 allocs/op
//
// possibly with extra "value unit" metric pairs. Names are kept verbatim,
// GOMAXPROCS suffix and all: `go test` adds none at GOMAXPROCS 1, so a
// trailing -N may be part of the name (BenchmarkX/shards-4), and both sides
// of a comparison run on one host anyway.
func parse(r io.Reader) (map[string]*samples, error) {
	out := make(map[string]*samples)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if len(fields) == 1 {
			continue // bare name line emitted by `go test -v`, not a result
		}
		if len(fields) < 4 {
			return nil, fmt.Errorf("truncated benchmark line %q", sc.Text())
		}
		name := fields[0]
		s := out[name]
		if s == nil {
			s = &samples{}
			out[name] = s
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q on line %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = append(s.ns, val)
			case "allocs/op":
				s.allocs = append(s.allocs, val)
			}
		}
	}
	for name, s := range out {
		if len(s.ns) == 0 {
			return nil, fmt.Errorf("benchmark %s has no ns/op samples", name)
		}
	}
	return out, sc.Err()
}

// median of a non-empty sample set; the mean of the middle pair for even
// sizes, matching benchstat's center estimate closely enough for gating.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is the interquartile range of a non-empty sample set, with linearly
// interpolated quartiles so 3- and 5-sample `-count` runs get a sensible
// spread estimate.
func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.75) - percentile(s, 0.25)
}

// percentile reads the p-quantile (0..1) from an ascending sample set using
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func format(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.0f", ns)
	case ns >= 100:
		return fmt.Sprintf("%.1f", ns)
	default:
		return fmt.Sprintf("%.2f", ns)
	}
}
