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
	var sb strings.Builder
	for _, f := range Run([]*Package{pkg}) {
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
// finding, so suppressions cannot silently outlive the code they excuse —
// and neither can one whose rule is misspelled.
func TestStaleIgnoreAudit(t *testing.T) {
	out := lintFixture(t, "ignoreaudit", "example.com/fixture/internal/core")
	for _, rule := range []string{"maprange", "maprnage"} {
		if !strings.Contains(out, ": ignore: stale //evlint:ignore "+rule+" ") {
			t.Errorf("stale %s directive was not reported:\n%s", rule, out)
		}
	}
}

// TestLoadRejectsTypeErrors: the loader is strict, so a package that does
// not type-check fails the load instead of being analyzed on partial types.
func TestLoadRejectsTypeErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join("testdata", "src", "typeerror"), "example.com/fixture/internal/core"); err == nil {
		t.Fatal("LoadDir accepted a package with a type error")
	}
}

// TestLoadModuleStopsAtNestedModules: a subdirectory with its own go.mod is
// another module, which the go tool does not list under this one, so the
// loader must not lint it either.
func TestLoadModuleStopsAtNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":         "module example.com/outer\n",
		"a/a.go":         "package a\n",
		"inner/go.mod":   "module example.com/inner\n",
		"inner/b/b.go":   "package b\n",
		"inner/inner.go": "package inner\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if len(got) != 1 || got[0] != "example.com/outer/a" {
		t.Errorf("LoadModule loaded %v, want [example.com/outer/a]", got)
	}
}

// TestRunIsDeterministic: Run returns its findings over a multi-package load
// in canonical (file, line, column, rule) order.
func TestRunIsDeterministic(t *testing.T) {
	var pkgs []*Package
	for _, tc := range fixtureCases {
		pkg, err := LoadDir(filepath.Join("testdata", "src", tc.rule), tc.importPath)
		if err != nil {
			t.Fatalf("LoadDir %s: %v", tc.rule, err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings := Run(pkgs)
	if len(findings) == 0 {
		t.Fatal("fixture suite produced no findings; the order check is vacuous")
	}
	sorted := append([]Finding(nil), findings...)
	SortFindings(sorted)
	for i := range findings {
		if findings[i] != sorted[i] {
			t.Errorf("finding %d out of canonical order: %s", i, findings[i])
		}
	}
}
