package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// PoolEscapeAnalyzer flags pooled scratch that escapes its borrow window. A
// value obtained from sync.Pool.Get (directly, or through an in-package
// function that returns pooled scratch) is only valid between Get and Put:
// once Put returns it to the pool, a concurrent borrower may overwrite it.
// The V-stage hot path (internal/vfilter) leans on exactly this discipline —
// per-Match scratch tables recycle through a pool — so any alias that
// outlives the Put silently corrupts another goroutine's match.
//
// Within each function, the analyzer tracks the Get result and every local
// alias derived from it through assignment, field selection, indexing, slice
// re-slicing, dereference, and type conversion (value copies of
// non-reference types are not aliases and are not tracked). It flags a
// tracked value that is
//
//   - returned to the caller,
//   - stored into a struct, map, or slice that is not itself pooled scratch,
//     or into a package-level variable, or
//   - captured by a goroutine, unless that goroutine visibly Puts the value
//     back itself (then the goroutine, not the launcher, owns the borrow).
//
// A function that intentionally hands out pooled scratch (a provider)
// carries an //evlint:ignore poolescape directive on its return; callers of
// a provider are then tracked exactly like direct Get callers.
func PoolEscapeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "poolescape",
		Run:  runPoolEscape,
	}
}

func runPoolEscape(p *Package) []Finding {
	// Pass 1: find provider functions — declarations with at least one
	// return of a Get-derived value. Their returns are findings (suppressed
	// on sanctioned providers), and their call sites seed tracking in pass 2.
	providers := make(map[types.Object]bool)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && funcReturnsPooled(p, fd.Body, nil) {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					providers[obj] = true
				}
			}
		}
	}

	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				out = append(out, analyzeFuncPool(p, body, providers)...)
			}
			return true
		})
	}
	return out
}

// funcReturnsPooled reports whether any return statement directly inside
// body (not in nested function literals) returns a pooled value.
func funcReturnsPooled(p *Package, body *ast.BlockStmt, providers map[types.Object]bool) bool {
	tracked := trackPooled(p, body, providers)
	found := false
	inspectShallow(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if rootedPooled(p, res, tracked, providers) {
				found = true
			}
		}
	})
	return found
}

// analyzeFuncPool runs the escape checks over one function body.
func analyzeFuncPool(p *Package, body *ast.BlockStmt, providers map[types.Object]bool) []Finding {
	tracked := trackPooled(p, body, providers)
	if len(tracked) == 0 && !bodyHasPoolGet(p, body, providers) {
		return nil
	}
	var out []Finding
	inspectShallow(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if rootedPooled(p, res, tracked, providers) {
					out = append(out, Finding{
						Rule:    "poolescape",
						Pos:     p.Fset.Position(st.Pos()),
						Message: fmt.Sprintf("pooled scratch %s escapes via return; after Put a concurrent Get may overwrite it — copy the data out instead", exprString(res)),
					})
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if len(st.Lhs) != len(st.Rhs) || !rootedPooled(p, rhs, tracked, providers) {
					continue
				}
				lhs := st.Lhs[i]
				switch l := lhs.(type) {
				case *ast.SelectorExpr:
					// Storing into the pooled scratch itself is the normal
					// way to use it; storing into anything else leaks.
					if !rootedPooled(p, l.X, tracked, providers) {
						out = append(out, Finding{
							Rule:    "poolescape",
							Pos:     p.Fset.Position(st.Pos()),
							Message: fmt.Sprintf("pooled scratch %s stored in %s, which outlives the Put; copy the data out instead", exprString(rhs), exprString(l)),
						})
					}
				case *ast.IndexExpr:
					if !rootedPooled(p, l.X, tracked, providers) {
						out = append(out, Finding{
							Rule:    "poolescape",
							Pos:     p.Fset.Position(st.Pos()),
							Message: fmt.Sprintf("pooled scratch %s stored in %s, which outlives the Put; copy the data out instead", exprString(rhs), exprString(l)),
						})
					}
				case *ast.Ident:
					if obj := identObject(p, l); obj != nil && isPackageLevel(p, obj) {
						out = append(out, Finding{
							Rule:    "poolescape",
							Pos:     p.Fset.Position(st.Pos()),
							Message: fmt.Sprintf("pooled scratch %s stored in package-level %s, which outlives the Put; copy the data out instead", exprString(rhs), l.Name),
						})
					}
				}
			}
		case *ast.GoStmt:
			out = append(out, checkGoCapture(p, st, tracked, providers)...)
		}
	})
	return out
}

// trackPooled computes the set of local objects aliasing pooled scratch in
// body, to a fixpoint over the (loop-free) assignment graph.
func trackPooled(p *Package, body *ast.BlockStmt, providers map[types.Object]bool) map[types.Object]bool {
	tracked := make(map[types.Object]bool)
	for {
		grew := false
		inspectShallow(body, func(n ast.Node) {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				return
			}
			for i, rhs := range st.Rhs {
				if !rootedPooled(p, rhs, tracked, providers) {
					continue
				}
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObject(p, id)
				if obj != nil && !isPackageLevel(p, obj) && !tracked[obj] {
					tracked[obj] = true
					grew = true
				}
			}
		})
		if !grew {
			return tracked
		}
	}
}

// rootedPooled reports whether e aliases pooled memory: its root (through
// parens, selections, indexing, slicing, dereference, type assertions, and
// type conversions) is a sync.Pool Get call, a provider call, or a tracked
// identifier. Expressions whose type carries no references (plain numbers,
// bools, strings, reference-free structs) are value copies, never aliases.
func rootedPooled(p *Package, e ast.Expr, tracked map[types.Object]bool, providers map[types.Object]bool) bool {
	if !typeHasReference(p.Info.TypeOf(e), 0) {
		return false
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := identObject(p, x)
		return obj != nil && tracked[obj]
	case *ast.ParenExpr:
		return rootedPooled(p, x.X, tracked, providers)
	case *ast.SelectorExpr:
		return rootedPooled(p, x.X, tracked, providers)
	case *ast.IndexExpr:
		return rootedPooled(p, x.X, tracked, providers)
	case *ast.SliceExpr:
		return rootedPooled(p, x.X, tracked, providers)
	case *ast.StarExpr:
		return rootedPooled(p, x.X, tracked, providers)
	case *ast.UnaryExpr:
		return rootedPooled(p, x.X, tracked, providers)
	case *ast.TypeAssertExpr:
		return rootedPooled(p, x.X, tracked, providers)
	case *ast.CallExpr:
		if isPoolGetCall(p, x) {
			return true
		}
		if id, ok := unwrapFun(x.Fun); ok {
			if obj := identObject(p, id); obj != nil && providers[obj] {
				return true
			}
		}
		// A type conversion aliases its operand (slice/pointer conversions).
		if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return rootedPooled(p, x.Args[0], tracked, providers)
		}
		return false
	default:
		return false
	}
}

// checkGoCapture flags tracked values that a goroutine captures or receives,
// unless the goroutine body itself puts scratch back to a pool.
func checkGoCapture(p *Package, st *ast.GoStmt, tracked map[types.Object]bool, providers map[types.Object]bool) []Finding {
	var out []Finding
	flag := func(pos ast.Node, what string) {
		out = append(out, Finding{
			Rule:    "poolescape",
			Pos:     p.Fset.Position(pos.Pos()),
			Message: fmt.Sprintf("pooled scratch %s captured by a goroutine that may outlive the Put; Put inside the goroutine or hand it a copy", what),
		})
	}
	for _, arg := range st.Call.Args {
		if rootedPooled(p, arg, tracked, providers) {
			flag(arg, exprString(arg))
		}
	}
	lit, ok := st.Call.Fun.(*ast.FuncLit)
	if !ok {
		return out
	}
	if bodyPutsPool(p, lit.Body) {
		return out // the goroutine owns the borrow and returns it itself
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := identObject(p, id); obj != nil && tracked[obj] {
			flag(id, id.Name)
			return false
		}
		return true
	})
	return out
}

// bodyPutsPool reports whether body contains a sync.Pool Put call.
func bodyPutsPool(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPoolMethodCall(p, call, "Put") {
			found = true
		}
		return !found
	})
	return found
}

func bodyHasPoolGet(p *Package, body *ast.BlockStmt, providers map[types.Object]bool) bool {
	found := false
	inspectShallow(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if isPoolGetCall(p, call) {
				found = true
			}
			if id, ok := unwrapFun(call.Fun); ok {
				if obj := identObject(p, id); obj != nil && providers[obj] {
					found = true
				}
			}
		}
	})
	return found
}

// isPoolGetCall matches x.Get() where x is (a pointer to) sync.Pool.
func isPoolGetCall(p *Package, call *ast.CallExpr) bool {
	return isPoolMethodCall(p, call, "Get")
}

func isPoolMethodCall(p *Package, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := p.Info.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// unwrapFun extracts the called identifier from f or pkg-or-recv selectors
// (x.f); method values through complex expressions are not resolved.
func unwrapFun(fun ast.Expr) (*ast.Ident, bool) {
	switch f := fun.(type) {
	case *ast.Ident:
		return f, true
	case *ast.SelectorExpr:
		return f.Sel, true
	}
	return nil, false
}

func identObject(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(p *Package, obj types.Object) bool {
	return obj.Parent() != nil && p.Pkg != nil && obj.Parent() == p.Pkg.Scope()
}

// typeHasReference reports whether t contains any component that can alias
// memory: pointers, slices, maps, channels, funcs, or interfaces. Strings
// are immutable and safe to copy out of pooled storage.
func typeHasReference(t types.Type, depth int) bool {
	if t == nil {
		return true // no type info: stay conservative, treat as aliasing
	}
	if depth > 10 {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return typeHasReference(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeHasReference(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// inspectShallow walks n but does not descend into nested function literals
// — per-function analyses own exactly one body each.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
