package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldOut = `goos: linux
goarch: amd64
BenchmarkSim-8            	30000000	        37.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSim-8            	30000000	        39.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSim-8            	30000000	        38.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFilterMatch-8    	    1000	   120000 ns/op	    5000 B/op	      40 allocs/op
BenchmarkGone-8           	    1000	     1000 ns/op
PASS
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseMedian(t *testing.T) {
	got, err := parse(strings.NewReader(oldOut))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got["BenchmarkSim-8"]
	if !ok {
		t.Fatalf("BenchmarkSim-8 missing: keys %v", got)
	}
	if m := median(s.ns); m != 38.0 {
		t.Errorf("median ns/op = %v, want 38", m)
	}
	if m := median(got["BenchmarkFilterMatch-8"].allocs); m != 40 {
		t.Errorf("median allocs/op = %v, want 40", m)
	}
}

// TestParseKeepsNamesVerbatim: at GOMAXPROCS 1 `go test` prints no suffix, so
// a trailing -N belongs to the name. Two sub-benchmarks that differ only there
// are two rows, and a regression of one is not averaged away by the other.
func TestParseKeepsNamesVerbatim(t *testing.T) {
	oldPath := writeTemp(t, "old.txt", "BenchmarkReplay/shards-1    10    100 ns/op\nBenchmarkReplay/shards-4    10    400 ns/op\n")
	newPath := writeTemp(t, "new.txt", "BenchmarkReplay/shards-1    10    300 ns/op\nBenchmarkReplay/shards-4    10    120 ns/op\n")
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d for a 3x regression of shards-1, want 1; stdout:\n%s", code, stdout.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "BenchmarkReplay/shards-1 ") != strings.HasSuffix(line, "REGRESSION") {
			t.Errorf("only the shards-1 row regressed: %s", line)
		}
	}
}

func TestRunPassesWithinThreshold(t *testing.T) {
	newOut := strings.ReplaceAll(oldOut, "   120000 ns/op", "   130000 ns/op")
	oldPath := writeTemp(t, "old.txt", oldOut)
	newPath := writeTemp(t, "new.txt", newOut)
	var stdout, stderr strings.Builder
	if code := run([]string{"-threshold", "20", oldPath, newPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d within threshold; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "BenchmarkFilterMatch") {
		t.Errorf("table missing benchmark:\n%s", stdout.String())
	}
}

func TestRunFailsOnRegression(t *testing.T) {
	newOut := strings.ReplaceAll(oldOut, "   120000 ns/op", "   190000 ns/op")
	oldPath := writeTemp(t, "old.txt", oldOut)
	newPath := writeTemp(t, "new.txt", newOut)
	var stdout, stderr strings.Builder
	if code := run([]string{"-threshold", "20", oldPath, newPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d for >20%% regression, want 1", code)
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("table does not flag regression:\n%s", stdout.String())
	}
}

func TestRemovedAndAddedBenchmarksNotGated(t *testing.T) {
	// BenchmarkGone disappears, BenchmarkNew appears: neither is a failure.
	newOut := strings.ReplaceAll(oldOut, "BenchmarkGone-8           	    1000	     1000 ns/op\n", "BenchmarkNew-8            	    1000	     1100 ns/op\n")
	oldPath := writeTemp(t, "old.txt", oldOut)
	newPath := writeTemp(t, "new.txt", newOut)
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "removed; not gated") || !strings.Contains(out, "new; not gated") {
		t.Errorf("missing removed/new annotations:\n%s", out)
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	oldPath := writeTemp(t, "old.txt", "no benchmarks here\n")
	newPath := writeTemp(t, "new.txt", oldOut)
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for empty input, want 2", code)
	}
}

func TestRunRejectsEmptyFile(t *testing.T) {
	oldPath := writeTemp(t, "old.txt", "")
	newPath := writeTemp(t, "new.txt", oldOut)
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for empty file, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no benchmark lines") {
		t.Errorf("stderr missing diagnosis: %s", stderr.String())
	}
}

func TestRunRejectsTruncatedLine(t *testing.T) {
	// A result line cut off mid-write (e.g. the bench job was killed) must be
	// an error, not a silently dropped sample.
	truncated := oldOut + "BenchmarkCutOff-8    1000\n"
	oldPath := writeTemp(t, "old.txt", truncated)
	newPath := writeTemp(t, "new.txt", oldOut)
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for truncated line, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "truncated benchmark line") {
		t.Errorf("stderr missing diagnosis: %s", stderr.String())
	}
}

func TestRunRejectsZeroNsSamples(t *testing.T) {
	// A benchmark whose lines carry metrics but never ns/op has zero usable
	// samples; gating on it would divide by a missing median.
	noNs := "BenchmarkOdd-8    1000    5000 B/op    40 allocs/op\n"
	oldPath := writeTemp(t, "old.txt", noNs)
	newPath := writeTemp(t, "new.txt", oldOut)
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for zero ns/op samples, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no ns/op samples") {
		t.Errorf("stderr missing diagnosis: %s", stderr.String())
	}
}

func TestParseSkipsBareNameLines(t *testing.T) {
	// `go test -v` prints the benchmark name alone before its result line;
	// that is legitimate output, not truncation.
	verbose := "BenchmarkSim\n" + oldOut
	got, err := parse(strings.NewReader(verbose))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkSim-8"]; !ok {
		t.Fatalf("lost BenchmarkSim: keys %v", got)
	}
}

func TestIQR(t *testing.T) {
	if got := iqr([]float64{100}); got != 0 {
		t.Errorf("iqr of one sample = %v, want 0", got)
	}
	// Sorted 5 samples: quartiles fall on interpolated ranks 1 and 3.
	if got := iqr([]float64{10, 20, 30, 40, 50}); got != 20 {
		t.Errorf("iqr = %v, want 20", got)
	}
}

func TestAllowanceColumnLogsChosenGate(t *testing.T) {
	// BenchmarkSim has a tight spread (IQR 1ns, 3·IQR < 20%·38ns): pct wins.
	// BenchmarkNoisy has a wide spread: iqr wins. Both choices are logged.
	wide := oldOut + `BenchmarkNoisy-8    1000    100000 ns/op
BenchmarkNoisy-8    1000    120000 ns/op
BenchmarkNoisy-8    1000    140000 ns/op
`
	oldPath := writeTemp(t, "old.txt", wide)
	newPath := writeTemp(t, "new.txt", wide)
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on identical runs; stderr: %s", code, stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "BenchmarkSim-8 "):
			if !strings.Contains(line, "(pct)") {
				t.Errorf("tight-spread row should use the percentage gate: %s", line)
			}
		case strings.HasPrefix(line, "BenchmarkNoisy-8 "):
			if !strings.Contains(line, "(iqr)") {
				t.Errorf("wide-spread row should use the IQR gate: %s", line)
			}
		}
	}
	if !strings.Contains(stdout.String(), "allowance") {
		t.Errorf("header missing allowance column:\n%s", stdout.String())
	}
}

func TestNoiseAdaptiveGateAbsorbsWideSpread(t *testing.T) {
	// Old medians at 120µs with a 20µs IQR: the 3·IQR allowance (60µs) beats
	// the 20% budget (24µs), so a 42% jump still passes...
	wideOld := `BenchmarkNoisy-8    1000    100000 ns/op
BenchmarkNoisy-8    1000    120000 ns/op
BenchmarkNoisy-8    1000    140000 ns/op
`
	newRun := "BenchmarkNoisy-8    1000    170000 ns/op\n"
	oldPath := writeTemp(t, "old.txt", wideOld)
	newPath := writeTemp(t, "new.txt", newRun)
	var stdout, stderr strings.Builder
	if code := run([]string{oldPath, newPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d for jump within 3·IQR, want 0; stdout:\n%s", code, stdout.String())
	}
	// ...but a jump past both budgets still fails...
	farPath := writeTemp(t, "far.txt", "BenchmarkNoisy-8    1000    190000 ns/op\n")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{oldPath, farPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d for jump beyond 3·IQR, want 1; stdout:\n%s", code, stdout.String())
	}
	// ...and -iqr-mult 0 reverts to the pure percentage gate.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-iqr-mult", "0", oldPath, newPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d with IQR allowance disabled, want 1; stdout:\n%s", code, stdout.String())
	}
}

// TestSummaryFile pins the -summary satellite: the markdown table must carry
// one row per benchmark with the gate term (pct vs iqr) that chose its
// allowance, mark removed/added benchmarks as ungated, and append — not
// truncate — so repeated steps accumulate in $GITHUB_STEP_SUMMARY.
func TestSummaryFile(t *testing.T) {
	// BenchmarkSim's old samples (37,38,39) have a tight IQR, so its gate is
	// the percentage term; BenchmarkFilterMatch has one sample (IQR 0), also
	// pct. A wide-spread benchmark exercises the iqr term.
	wideOld := oldOut + "BenchmarkWide-8    100    100000 ns/op\nBenchmarkWide-8    100    200000 ns/op\nBenchmarkWide-8    100    900000 ns/op\n"
	wideNew := strings.ReplaceAll(wideOld, "BenchmarkGone", "BenchmarkFresh")
	oldPath := writeTemp(t, "old.txt", wideOld)
	newPath := writeTemp(t, "new.txt", wideNew)
	sumPath := filepath.Join(t.TempDir(), "summary.md")
	if err := os.WriteFile(sumPath, []byte("prior section\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-threshold", "20", "-iqr-mult", "3", "-summary", sumPath, oldPath, newPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	if !strings.HasPrefix(md, "prior section\n") {
		t.Error("-summary truncated the file instead of appending")
	}
	for _, want := range []string{
		"### benchdiff: no time/op regressions",
		"| benchmark |",
		"| gate term |",
		"| BenchmarkSim-8 | 38.00 | 38.00 | +0.0% |",
		"| pct | pass |",
		"| iqr | pass |", // BenchmarkWide's 3·IQR dwarfs 20% of its median
		"| BenchmarkGone-8 |",
		"removed (not gated)",
		"| BenchmarkFresh-8 |",
		"new (not gated)",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}
	// The iqr row must be BenchmarkWide's, and regressions flip the verdict.
	for _, line := range strings.Split(md, "\n") {
		if strings.Contains(line, "| iqr |") && !strings.Contains(line, "BenchmarkWide") {
			t.Errorf("iqr gate term on unexpected row: %s", line)
		}
	}
	regNew := strings.ReplaceAll(wideNew, "   120000 ns/op", "   190000 ns/op")
	regPath := writeTemp(t, "reg.txt", regNew)
	sum2 := filepath.Join(t.TempDir(), "s2.md")
	if code := run([]string{"-threshold", "20", "-summary", sum2, oldPath, regPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d for regression, want 1", code)
	}
	raw2, err := os.ReadFile(sum2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw2), "**1 benchmark(s) regressed**") {
		t.Errorf("regressed verdict missing:\n%s", raw2)
	}
	if !strings.Contains(string(raw2), "| REGRESSION |") {
		t.Errorf("REGRESSION row missing:\n%s", raw2)
	}
}
