package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// wallclockPackages are the replay-deterministic package trees: code whose
// behavior must be a pure function of its inputs so that crash/restore and
// chaos schedules replay bit-identically. Unlike the maprange scope, these
// entries cover their subpackages too (internal/chaos/... hosts the
// simulation kernels).
var wallclockPackages = []string{
	"internal/stream",
	"internal/chaos",
	"internal/spill",
	"internal/shardrpc",
}

// wallclockFuncs are the time-package entry points that read the process
// wall clock.
var wallclockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// WallClockAnalyzer flags wall-clock reads (time.Now, time.Since,
// time.Until) in the replay-deterministic packages. Stream windowing is
// event-time only: a wall-clock read in the hot path would make watermarks —
// and therefore window-close order and match results — depend on scheduling.
// The one sanctioned access is the injected-clock seam itself
// (stream.SystemClock), which carries the ignore annotation.
func WallClockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "wallclock",
		Run:  runWallClock,
	}
}

func runWallClock(p *Package) []Finding {
	if !inPackageTrees(p.Path, wallclockPackages) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !wallclockFuncs[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !isTimePackage(p, id) {
				return true
			}
			out = append(out, Finding{
				Rule: "wallclock",
				Pos:  p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("time.%s reads the wall clock in a replay-deterministic package; inject a Clock through the config seam instead",
					sel.Sel.Name),
			})
			return true
		})
	}
	return out
}

// inPackageTrees reports whether the import path lies inside any of the
// package trees: at the root (pathHasSuffix) or in a subpackage beneath it.
func inPackageTrees(path string, trees []string) bool {
	for _, tree := range trees {
		if pathHasSuffix(path, tree) ||
			strings.HasPrefix(path, tree+"/") ||
			strings.Contains(path, "/"+tree+"/") {
			return true
		}
	}
	return false
}

// isTimePackage reports whether id names the time package.
func isTimePackage(p *Package, id *ast.Ident) bool {
	return importsPath(p, id, "time")
}
