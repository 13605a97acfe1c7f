package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrWrapAnalyzer flags fmt.Errorf calls that interpolate an error operand
// (via %v, %s, ...) without wrapping it with %w. Unwrapped errors break the
// errors.Is / errors.As chains callers rely on — the cluster coordinator's
// retry path inspects failure causes, and context cancellation must stay
// detectable through every layer.
func ErrWrapAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errwrap",
		Run:  runErrWrap,
	}
}

func runErrWrap(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(p, call.Fun, "fmt", "Errorf") || len(call.Args) < 2 {
				return true
			}
			format, ok := constString(p, call.Args[0])
			if !ok {
				return true
			}
			wraps := countVerb(format, 'w')
			errArgs := 0
			var firstErr ast.Expr
			for _, arg := range call.Args[1:] {
				if isErrorExpr(p, arg) {
					errArgs++
					if firstErr == nil {
						firstErr = arg
					}
				}
			}
			if errArgs > wraps {
				out = append(out, Finding{
					Rule: "errwrap",
					Pos:  p.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("fmt.Errorf formats error %s without %%w; wrap it so errors.Is/errors.As keep working",
						exprString(firstErr)),
				})
			}
			return true
		})
	}
	return out
}

// isPkgFunc reports whether fun is a selector pkg.name where pkg is the
// package imported from pkgPath.
func isPkgFunc(p *Package, fun ast.Expr, pkgPath, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && importsPath(p, id, pkgPath)
}

// importsPath reports whether id names the package imported from path.
func importsPath(p *Package, id *ast.Ident, path string) bool {
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// constString extracts a compile-time constant string value.
func constString(p *Package, e ast.Expr) (string, bool) {
	tv := p.Info.Types[e]
	if tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

// countVerb counts occurrences of the formatting verb v, skipping %%.
func countVerb(format string, v byte) int {
	n := 0
	for i := 0; i+1 < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		if format[i+1] == '%' {
			i++
			continue
		}
		// Skip flags, width, and precision between % and the verb.
		j := i + 1
		for j < len(format) && strings.IndexByte("+-# 0123456789.*", format[j]) >= 0 {
			j++
		}
		if j < len(format) && format[j] == v {
			n++
		}
		i = j
	}
	return n
}

// isErrorExpr reports whether e is error-typed.
func isErrorExpr(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	return t != nil && implementsError(t)
}

func implementsError(t types.Type) bool {
	iface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}
