package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockBalanceAnalyzer checks that mutex acquire/release pairs balance on
// every return path of every function, and that the release matches the
// acquire's kind: a Lock must be released by Unlock (not RUnlock) and an
// RLock by RUnlock. A path that returns while a lock is demonstrably held —
// or that releases a lock it never took — deadlocks or panics at runtime,
// but only on the schedule that takes that path; this check is total.
//
// The analyzer abstractly interprets each function body over per-mutex hold
// counts: straight-line lock calls adjust the counts, deferred releases are
// credited to every later return, branches (if/switch/select) are explored
// independently and must rejoin with identical hold state, and loop bodies
// must be hold-neutral. Function literals are separate functions — a
// goroutine body balances its own locks. The analysis is intraprocedural:
// helpers that intentionally acquire for (or release on behalf of) their
// caller need an //evlint:ignore lockbalance directive naming the contract.
func LockBalanceAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockbalance",
		Run:  runLockBalance,
	}
}

// lockKey identifies one mutex expression and hold kind within a function.
type lockKey struct {
	expr string // source form of the receiver, e.g. "c.mu"
	kind byte   // 'W' for Lock/Unlock, 'R' for RLock/RUnlock
}

func (k lockKey) method() string {
	if k.kind == 'R' {
		return "RLock"
	}
	return "Lock"
}

// lockState maps each lockKey to its current hold depth.
type lockState map[lockKey]int

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

func (s lockState) equal(o lockState) bool {
	for k, v := range s {
		if o[k] != v {
			return false
		}
	}
	for k, v := range o {
		if s[k] != v {
			return false
		}
	}
	return true
}

// lockWalker interprets one function body.
type lockWalker struct {
	p        *Package
	findings []Finding
}

func runLockBalance(p *Package) []Finding {
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
			if body == nil {
				return true
			}
			w := &lockWalker{p: p}
			state, deferred, terminated := w.walkStmts(body.List, lockState{}, lockState{})
			if !terminated {
				w.checkExit(state, deferred, body.Rbrace)
			}
			out = append(out, w.findings...)
			return true
		})
	}
	return out
}

// walkStmts interprets stmts from the given hold state. deferred counts
// releases registered by defer statements so far. It returns the exit
// state and whether every path through stmts terminated (returned).
func (w *lockWalker) walkStmts(stmts []ast.Stmt, state, deferred lockState) (lockState, lockState, bool) {
	for _, s := range stmts {
		var terminated bool
		state, deferred, terminated = w.walkStmt(s, state, deferred)
		if terminated {
			return state, deferred, true
		}
	}
	return state, deferred, false
}

func (w *lockWalker) walkStmt(s ast.Stmt, state, deferred lockState) (lockState, lockState, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			w.applyCall(call, state)
		}
	case *ast.DeferStmt:
		w.applyDefer(st, state, deferred)
	case *ast.ReturnStmt:
		w.checkExit(state, deferred, st.Pos())
		return state, deferred, true
	case *ast.BlockStmt:
		return w.walkStmts(st.List, state, deferred)
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt, state, deferred)
	case *ast.IfStmt:
		if st.Init != nil {
			state, deferred, _ = w.walkStmt(st.Init, state, deferred)
		}
		thenState, thenDef, thenTerm := w.walkStmts(st.Body.List, state.clone(), deferred.clone())
		elseState, elseDef, elseTerm := state, deferred, false
		if st.Else != nil {
			elseState, elseDef, elseTerm = w.walkStmt(st.Else, state.clone(), deferred.clone())
		}
		return w.merge(st.If, [][3]any{{thenState, thenDef, thenTerm}, {elseState, elseDef, elseTerm}})
	case *ast.ForStmt:
		if st.Init != nil {
			state, deferred, _ = w.walkStmt(st.Init, state, deferred)
		}
		w.checkLoopBody(st.Body, st.For, state, deferred)
	case *ast.RangeStmt:
		w.checkLoopBody(st.Body, st.For, state, deferred)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkBranches(s, state, deferred)
	}
	return state, deferred, false
}

// checkLoopBody requires the loop body to be hold-neutral: a body that exits
// with a different hold state compounds per iteration.
func (w *lockWalker) checkLoopBody(body *ast.BlockStmt, pos token.Pos, state, deferred lockState) {
	exit, _, terminated := w.walkStmts(body.List, state.clone(), deferred.clone())
	if !terminated && !exit.equal(state) {
		w.findings = append(w.findings, Finding{
			Rule:    "lockbalance",
			Pos:     w.p.Fset.Position(pos),
			Message: "loop body changes the mutex hold state; each iteration compounds the imbalance",
		})
	}
}

// walkBranches explores switch/select clauses independently and merges.
func (w *lockWalker) walkBranches(s ast.Stmt, state, deferred lockState) (lockState, lockState, bool) {
	var clauses []ast.Stmt
	hasDefault := false
	implicitFallthrough := true // switch without default: the no-match path
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			state, deferred, _ = w.walkStmt(st.Init, state, deferred)
		}
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		clauses = st.Body.List
	case *ast.SelectStmt:
		clauses = st.Body.List
		implicitFallthrough = false // select blocks until a clause runs
	}
	var branches [][3]any
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if cc.Comm != nil {
				// The comm statement itself (send or receive) holds no locks.
			} else {
				hasDefault = true
			}
			body = cc.Body
		}
		bs, bd, bt := w.walkStmts(body, state.clone(), deferred.clone())
		branches = append(branches, [3]any{bs, bd, bt})
	}
	if len(branches) == 0 {
		return state, deferred, false
	}
	if implicitFallthrough && !hasDefault {
		branches = append(branches, [3]any{state.clone(), deferred.clone(), false})
	}
	return w.merge(s.Pos(), branches)
}

// merge joins branch outcomes: terminated branches drop out; surviving
// branches must agree on the hold state, else the lock is held on only some
// paths — a finding — and analysis continues with the first survivor.
func (w *lockWalker) merge(pos token.Pos, branches [][3]any) (lockState, lockState, bool) {
	var live [][3]any
	for _, b := range branches {
		if !b[2].(bool) {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		last := branches[len(branches)-1]
		return last[0].(lockState), last[1].(lockState), true
	}
	first := live[0]
	fs, fd := first[0].(lockState), first[1].(lockState)
	for _, b := range live[1:] {
		if !fs.equal(b[0].(lockState)) {
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(pos),
				Message: "mutex hold state differs between branches; a lock is held on only some paths from here",
			})
			break
		}
	}
	return fs, fd, false
}

// applyCall interprets one (potential) lock call against the hold state.
func (w *lockWalker) applyCall(call *ast.CallExpr, state lockState) {
	key, op, ok := w.lockCall(call)
	if !ok {
		return
	}
	wKey := lockKey{expr: key, kind: 'W'}
	rKey := lockKey{expr: key, kind: 'R'}
	switch op {
	case "Lock", "TryLock":
		state[wKey]++
	case "RLock", "TryRLock":
		state[rKey]++
	case "Unlock":
		switch {
		case state[wKey] > 0:
			state[wKey]--
		case state[rKey] > 0:
			state[rKey]--
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("%s.RLock released with Unlock; a read lock must be released with RUnlock", key),
			})
		default:
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("%s.Unlock without a visible Lock on this path", key),
			})
		}
	case "RUnlock":
		switch {
		case state[rKey] > 0:
			state[rKey]--
		case state[wKey] > 0:
			state[wKey]--
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("%s.Lock released with RUnlock; a write lock must be released with Unlock", key),
			})
		default:
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("%s.RUnlock without a visible RLock on this path", key),
			})
		}
	}
}

// applyDefer registers a deferred release (defer mu.Unlock()).
func (w *lockWalker) applyDefer(st *ast.DeferStmt, state, deferred lockState) {
	key, op, ok := w.lockCall(st.Call)
	if !ok {
		return
	}
	wKey := lockKey{expr: key, kind: 'W'}
	rKey := lockKey{expr: key, kind: 'R'}
	switch op {
	case "Unlock":
		if state[wKey] == 0 && state[rKey] > 0 {
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(st.Pos()),
				Message: fmt.Sprintf("%s.RLock released with deferred Unlock; defer RUnlock instead", key),
			})
			return
		}
		deferred[wKey]++
	case "RUnlock":
		if state[rKey] == 0 && state[wKey] > 0 {
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(st.Pos()),
				Message: fmt.Sprintf("%s.Lock released with deferred RUnlock; defer Unlock instead", key),
			})
			return
		}
		deferred[rKey]++
	}
}

// checkExit verifies that every hold is covered by a deferred release at a
// return (or at the end of the function body).
func (w *lockWalker) checkExit(state, deferred lockState, pos token.Pos) {
	for key, depth := range state {
		net := depth - deferred[key]
		if net > 0 {
			w.findings = append(w.findings, Finding{
				Rule:    "lockbalance",
				Pos:     w.p.Fset.Position(pos),
				Message: fmt.Sprintf("return while %s.%s is still held on this path; unlock before returning or defer the release", key.expr, key.method()),
			})
		}
	}
}

// lockCall matches x.(Lock|TryLock|Unlock|RLock|TryRLock|RUnlock)() where
// the method resolves into package sync — sync.Mutex and sync.RWMutex
// receivers (value or pointer) and mutexes promoted from embedded fields.
func (w *lockWalker) lockCall(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "TryLock", "Unlock", "RLock", "TryRLock", "RUnlock":
	default:
		return "", "", false
	}
	s, okSel := w.p.Info.Selections[sel]
	if !okSel || s.Kind() != types.MethodVal || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}
