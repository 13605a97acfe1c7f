package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapRangePackages are the result-affecting packages where map iteration
// order can leak into match output, report bytes, or paper figures.
var mapRangePackages = []string{
	"internal/blocking",
	"internal/core",
	"internal/vfilter",
	"internal/scenario",
	"internal/partition",
	"internal/stream",
	"internal/spill",
	"internal/shardrpc",
}

// MapRangeAnalyzer flags `range` over map-typed values in result-affecting
// packages. Go randomizes map iteration order, so any such loop whose effect
// is order-sensitive makes match results nondeterministic — the paper's SS
// algorithm (§IV) and the MapReduce conformance checks both require
// byte-identical reruns.
//
// Two idioms pass without annotation, because their net effect is provably
// order-free:
//
//   - collect-then-sort: the body only appends the key/value to a slice and
//     the function later sorts that slice (sort.*, ids.SortEIDs, ...);
//   - pure counting: the body only increments or += integer accumulators.
//
// Anything else must either iterate a sorted key slice instead, or carry an
// //evlint:ignore maprange <reason> annotation stating why order cannot
// matter at that site.
func MapRangeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maprange",
		Run:  runMapRange,
	}
}

func runMapRange(p *Package) []Finding {
	if !inPackages(p.Path, mapRangePackages) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapType(p.Info.TypeOf(rs.X)) {
				return true
			}
			if isCollectThenSort(p, file, rs) || isPureCounting(p, rs.Body) {
				return true
			}
			out = append(out, Finding{
				Rule: "maprange",
				Pos:  p.Fset.Position(rs.For),
				Message: fmt.Sprintf("range over map %s has randomized order; iterate a sorted key slice, or annotate //evlint:ignore maprange <reason>",
					exprString(rs.X)),
			})
			return true
		})
	}
	return out
}

func inPackages(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isCollectThenSort reports the collect-then-sort idiom: the loop body is a
// single (possibly if-guarded) append of the range variables into a slice,
// and a later call in the same function sorts that slice.
func isCollectThenSort(p *Package, file *ast.File, rs *ast.RangeStmt) bool {
	target := appendTarget(rs.Body.List)
	if target == nil {
		return false
	}
	fn := enclosingFunc(file, rs.Pos())
	if fn == nil {
		return false
	}
	obj := identObject(p, target)
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && identObject(p, id) == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// appendTarget returns the slice identifier of a lone `x = append(x, ...)`
// body (optionally wrapped in one if statement), or nil.
func appendTarget(stmts []ast.Stmt) *ast.Ident {
	if len(stmts) != 1 {
		return nil
	}
	switch s := stmts[0].(type) {
	case *ast.IfStmt:
		if s.Else != nil || s.Init != nil {
			return nil
		}
		return appendTarget(s.Body.List)
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN {
			return nil
		}
		lhs, ok := s.Lhs[0].(*ast.Ident)
		if !ok {
			return nil
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			return nil
		}
		if len(call.Args) == 0 {
			return nil
		}
		if first, ok := call.Args[0].(*ast.Ident); !ok || first.Name != lhs.Name {
			return nil
		}
		return lhs
	default:
		return nil
	}
}

// isSortCall matches sort.* and project Sort* helpers (ids.SortEIDs, ...).
func isSortCall(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok && id.Name == "sort" {
			return true
		}
		return strings.HasPrefix(fn.Sel.Name, "Sort")
	case *ast.Ident:
		return strings.HasPrefix(fn.Name, "Sort") || strings.HasPrefix(fn.Name, "sort")
	}
	return false
}

// isPureCounting reports whether every statement in the body only increments
// integer accumulators (n++, sum += v), possibly behind if guards.
func isPureCounting(p *Package, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	var check func(stmts []ast.Stmt) bool
	check = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.IncDecStmt:
				if !isIntegerExpr(p, st.X) {
					return false
				}
			case *ast.AssignStmt:
				if st.Tok != token.ADD_ASSIGN || len(st.Lhs) != 1 || !isIntegerExpr(p, st.Lhs[0]) {
					return false
				}
			case *ast.IfStmt:
				if st.Init != nil || st.Else != nil || !check(st.Body.List) {
					return false
				}
			case *ast.BranchStmt:
				if st.Tok != token.CONTINUE {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return check(body.List)
}

func isIntegerExpr(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// exprString renders a short source form of simple expressions for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	default:
		return "expression"
	}
}
