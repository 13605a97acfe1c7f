package perf

import (
	"os"
	"os/exec"
	"sort"
	"testing"
)

// buildBinaries builds the real evserve and evshardd the workloads drive.
func buildBinaries(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+"/", "./cmd/evserve", "./cmd/evshardd")
	cmd.Dir = "../.." // the repository root: the module the binaries live in
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func metricNames(ms []Metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// Every workload must emit exactly the end-to-end metrics untraced and
// exactly the per-layer metrics traced, verify its outputs, and leave no
// process or scratch file behind.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	bin := buildBinaries(t)
	for _, wl := range Workloads {
		for _, traced := range []bool{false, true} {
			name, want := wl.Name+"/end-to-end", metricNames(EndToEnd)
			if traced {
				name, want = wl.Name+"/traced", metricNames(PerLayer)
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				res, err := Run(Options{
					Workload: wl.Name, Seed: 1, Seconds: 0.3, Trace: traced, Short: true,
					OutDir: out, BinDir: bin,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%q", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				var got []string
				for n, v := range res.Metrics {
					got = append(got, n)
					if !traced && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", n)
					}
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Fatalf("emitted %d metrics %v, want %d", len(got), got, len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("emitted metric %q where %q was expected", got[i], want[i])
					}
				}
				for _, m := range append(EndToEnd, PerLayer...) {
					if v, ok := res.Metrics[m.Name]; ok && v.Unit != m.Unit {
						t.Errorf("metric %s reported in %q, spec says %q", m.Name, v.Unit, m.Unit)
					}
				}
				entries, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if e.IsDir() {
						t.Errorf("scratch directory %s left behind", e.Name())
					}
				}
				if traced {
					if _, err := os.Stat(tracePath(out, wl.Name)); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := Run(Options{Workload: "nope", Seconds: 1, OutDir: t.TempDir()}); err == nil {
		t.Error("an unknown workload ran")
	}
}
