package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// goroutinePackages are the concurrency-heavy layers implementing the
// paper's MapReduce parallelization, where an unjoined goroutine means lost
// work, lost errors, or a leak under the race detector.
var goroutinePackages = []string{
	"internal/cluster",
	"internal/mapreduce",
	"internal/server",
}

// GoroutineAnalyzer enforces goroutine discipline in the cluster, mapreduce,
// and server packages. A `go` launch passes when its result is observably
// joined:
//
//   - the goroutine participates in a WaitGroup (calls Done), or
//   - the goroutine communicates its completion (sends on or closes a
//     channel), or
//   - the launching function demonstrably waits (a Wait call, channel
//     receive, channel range, or select after the launch).
//
// Fire-and-forget launches are flagged. The analyzer also flags copies of
// sync.Mutex / sync.RWMutex values (parameters, assignments, call
// arguments): a copied lock guards nothing.
func GoroutineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "goroutine",
		Run:  runGoroutine,
	}
}

func runGoroutine(p *Package) []Finding {
	if !inPackages(p.Path, goroutinePackages) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				if !goroutineJoined(file, st) {
					out = append(out, Finding{
						Rule:    "goroutine",
						Pos:     p.Fset.Position(st.Go),
						Message: "goroutine has no visible join (WaitGroup Done, channel send/close, or a Wait/receive after launch); fire-and-forget loses work and errors",
					})
				}
			case *ast.AssignStmt:
				for _, rhs := range st.Rhs {
					if isMutexValue(p, rhs) {
						out = append(out, mutexFinding(p, rhs))
					}
				}
			case *ast.CallExpr:
				for _, arg := range st.Args {
					if isMutexValue(p, arg) {
						out = append(out, mutexFinding(p, arg))
					}
				}
			case *ast.FuncDecl:
				out = append(out, mutexParams(p, st.Type)...)
			case *ast.FuncLit:
				out = append(out, mutexParams(p, st.Type)...)
			}
			return true
		})
	}
	return out
}

// goroutineJoined reports whether the launch at st is joined by one of the
// accepted disciplines.
func goroutineJoined(file *ast.File, st *ast.GoStmt) bool {
	// Discipline inside the goroutine body: WaitGroup participation or
	// completion signaling over a channel.
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		joined := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SendStmt:
				joined = true
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
					joined = true
				}
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
					joined = true
				}
			}
			return !joined
		})
		if joined {
			return true
		}
	}
	// Discipline in the launcher: a wait or receive after the launch.
	fn := enclosingFunc(file, st.Pos())
	if fn == nil {
		return false
	}
	joined := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil || joined || n.Pos() < st.End() {
			return !joined
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				joined = true
			}
		case *ast.RangeStmt:
			// Over a channel this is a drain; over anything else it is
			// harmless to accept only when a receive appears inside, which
			// the inspection below will find on its own.
		case *ast.SelectStmt:
			joined = true
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

func isMutexValue(p *Package, e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return false // &x, composite literals, calls: not a copy of a value
	}
	return isMutexType(p.Info.TypeOf(e))
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func mutexFinding(p *Package, e ast.Expr) Finding {
	return Finding{
		Rule:    "goroutine",
		Pos:     p.Fset.Position(e.Pos()),
		Message: fmt.Sprintf("%s copies a sync mutex by value; a copied lock guards nothing — pass a pointer", exprString(e)),
	}
}

func mutexParams(p *Package, ft *ast.FuncType) []Finding {
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []Finding
	for _, field := range ft.Params.List {
		if isMutexType(p.Info.TypeOf(field.Type)) {
			out = append(out, Finding{
				Rule:    "goroutine",
				Pos:     p.Fset.Position(field.Pos()),
				Message: "parameter receives a sync mutex by value; a copied lock guards nothing — pass a pointer",
			})
		}
	}
	return out
}
