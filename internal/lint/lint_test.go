package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixtureCases pairs each analyzer with its fixture package. The import path
// poses as a project package so the scoped analyzers (maprange, goroutine)
// consider the fixture in range.
var fixtureCases = []struct {
	rule       string
	importPath string
}{
	{"maprange", "example.com/fixture/internal/core"},
	{"errwrap", "example.com/fixture/internal/retry"},
	{"goroutine", "example.com/fixture/internal/cluster"},
	{"seedcheck", "example.com/fixture/internal/seed"},
	{"wallclock", "example.com/fixture/internal/stream"},
	{"poolescape", "example.com/fixture/internal/pool"},
	{"lockbalance", "example.com/fixture/internal/locks"},
}

// lintFixture runs the full pass suite over testdata/src/<name> and renders
// the findings with basenamed files, one per line.
func lintFixture(t *testing.T, name, importPath string) string {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no linted files", name)
	}
	for _, te := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", name, te)
	}
	var sb strings.Builder
	for _, f := range Run([]*Package{pkg}, Analyzers()) {
		f.Pos.Filename = filepath.Base(f.Pos.Filename)
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestAnalyzerGoldens locks each analyzer's findings over its fixture to a
// golden file: the positive cases must fire at exactly the recorded
// positions, and the suppressed and clean cases must stay absent.
// Regenerate with: go test ./internal/lint/ -run TestAnalyzerGoldens -update
func TestAnalyzerGoldens(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.rule, func(t *testing.T) {
			got := lintFixture(t, tc.rule, tc.importPath)
			// Guard the golden mechanism itself: an analyzer that silently
			// stopped firing would otherwise just regenerate an empty golden.
			if !strings.Contains(got, ": "+tc.rule+": ") {
				t.Errorf("no %s findings on the positive fixture:\n%s", tc.rule, got)
			}
			golden := filepath.Join("testdata", tc.rule+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s:\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}

// TestScopedAnalyzersRespectPackagePaths: the same fixtures produce no
// maprange/goroutine findings when loaded under a path outside the
// result-affecting and concurrency-heavy package lists.
func TestScopedAnalyzersRespectPackagePaths(t *testing.T) {
	for _, name := range []string{"maprange", "goroutine", "wallclock"} {
		t.Run(name, func(t *testing.T) {
			out := lintFixture(t, name, "example.com/fixture/internal/unscoped")
			for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
				if strings.Contains(line, ": "+name+": ") {
					t.Errorf("scoped rule %s fired outside its packages: %s", name, line)
				}
			}
		})
	}
}

// TestWallClockCoversSubpackages: the wallclock scope includes subpackages
// beneath its trees (internal/chaos/sim and friends), unlike the exact-suffix
// scoping of maprange and goroutine.
func TestWallClockCoversSubpackages(t *testing.T) {
	out := lintFixture(t, "wallclock", "example.com/fixture/internal/chaos/sim")
	if !strings.Contains(out, ": wallclock: ") {
		t.Errorf("wallclock did not fire in a subpackage of internal/chaos:\n%s", out)
	}
}

// TestSuppressionNeedsReason: a reasonless directive suppresses nothing and
// is itself a finding (fixture maprange carries one).
func TestSuppressionNeedsReason(t *testing.T) {
	out := lintFixture(t, "maprange", "example.com/fixture/internal/core")
	if !strings.Contains(out, ": ignore: ") {
		t.Errorf("reasonless directive was not reported:\n%s", out)
	}
}

// TestStaleIgnoreAudit: a directive that suppresses nothing is itself a
// finding, so suppressions cannot silently outlive the code they excuse.
func TestStaleIgnoreAudit(t *testing.T) {
	out := lintFixture(t, "ignoreaudit", "example.com/fixture/internal/core")
	if !strings.Contains(out, ": ignore: stale //evlint:ignore maprange") {
		t.Errorf("stale directive was not reported:\n%s", out)
	}
}

// TestAnalyzersCanonicalOrder pins the registry: seven analyzers, stable
// order, so -rules filtering and documentation stay aligned.
func TestAnalyzersCanonicalOrder(t *testing.T) {
	want := []string{
		"maprange", "errwrap", "goroutine", "seedcheck", "wallclock",
		"poolescape", "lockbalance",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}

// TestRunIsDeterministic: the concurrent per-package stage must not leak
// scheduling order into the output — repeated runs over the same multi-
// package load produce byte-identical findings.
func TestRunIsDeterministic(t *testing.T) {
	var pkgs []*Package
	for _, tc := range fixtureCases {
		pkg, err := LoadDir(filepath.Join("testdata", "src", tc.rule), tc.importPath)
		if err != nil {
			t.Fatalf("LoadDir %s: %v", tc.rule, err)
		}
		pkgs = append(pkgs, pkg)
	}
	render := func() ([]Finding, string) {
		fs := Run(pkgs, Analyzers())
		var sb strings.Builder
		for _, f := range fs {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return fs, sb.String()
	}
	findings, first := render()
	if first == "" {
		t.Fatal("fixture suite produced no findings; determinism check is vacuous")
	}
	for i := 0; i < 5; i++ {
		if _, got := render(); got != first {
			t.Fatalf("run %d diverged:\n--- first\n%s--- got\n%s", i+2, first, got)
		}
	}
	// Findings are merged from concurrent workers, so ordering is the
	// framework's job: the returned slice must already be in canonical
	// (file, line, column, rule) order.
	sorted := append([]Finding(nil), findings...)
	SortFindings(sorted)
	for i := range findings {
		if findings[i] != sorted[i] {
			t.Errorf("finding %d out of canonical order: %s", i, findings[i])
		}
	}
}
