// Package lint is the project's static-analysis pass suite, run over the
// module by TestModuleIsLintClean. It enforces the correctness disciplines
// the EV-Matching reproduction depends on — deterministic iteration in
// result-affecting packages, error wrapping, goroutine join discipline,
// seedable randomness, wall-clock injection, pooled-scratch containment, and
// lock balance — as named, individually testable analyzers built only on
// go/ast, go/parser, and go/types.
//
// A finding can be suppressed by annotating the offending line (or the line
// directly above it) with
//
//	//evlint:ignore <rule> <reason>
//
// The reason is mandatory: a directive without one suppresses nothing and is
// itself reported, so every escape hatch documents why the rule does not
// apply. A directive that suppresses nothing is itself reported as stale, so
// suppressions cannot outlive the code they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String formats the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Analyzer is one named rule. Run analyzes one package at a time.
type Analyzer struct {
	Name string
	Run  func(*Package) []Finding
}

// Analyzers returns the full pass suite in its canonical order: the five
// syntax-level analyzers first, then the two type-aware deep-analysis rules,
// each group in introduction order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRangeAnalyzer(),
		ErrWrapAnalyzer(),
		GoroutineAnalyzer(),
		SeedCheckAnalyzer(),
		WallClockAnalyzer(),
		PoolEscapeAnalyzer(),
		LockBalanceAnalyzer(),
	}
}

// ignoreDirective is one parsed //evlint:ignore comment. used records
// whether any finding was suppressed by it; a directive that stays unused
// through a full run is stale and becomes a finding itself.
type ignoreDirective struct {
	rule   string
	reason string
	pos    token.Position
	used   bool
}

const directivePrefix = "//evlint:ignore"

// directives extracts the ignore directives of every file in the package,
// keyed by file name then line, merging into dirs. Malformed directives are
// returned as findings.
func directives(p *Package, dirs map[string]map[int]*ignoreDirective) []Finding {
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				rule, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if rule == "" || reason == "" {
					bad = append(bad, Finding{
						Rule:    "ignore",
						Pos:     pos,
						Message: "evlint:ignore directive needs a rule and a reason: //evlint:ignore <rule> <reason>",
					})
					continue
				}
				byLine := dirs[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*ignoreDirective)
					dirs[pos.Filename] = byLine
				}
				byLine[pos.Line] = &ignoreDirective{rule: rule, reason: reason, pos: pos}
			}
		}
	}
	return bad
}

// suppress reports whether a finding of rule at pos is covered by a
// directive on the same line or the line directly above, marking the
// directive used.
func suppress(dirs map[string]map[int]*ignoreDirective, rule string, pos token.Position) bool {
	byLine := dirs[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := byLine[line]; ok && d.rule == rule {
			d.used = true
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package, applies suppressions, audits
// them for staleness, and returns the surviving findings sorted by position.
func Run(pkgs []*Package) []Finding {
	// Directives first: they share one map across packages.
	dirs := make(map[string]map[int]*ignoreDirective)
	var all []Finding
	for _, p := range pkgs {
		all = append(all, directives(p, dirs)...)
	}
	analyzers := Analyzers()
	for _, p := range pkgs {
		for _, a := range analyzers {
			for _, f := range a.Run(p) {
				if !suppress(dirs, f.Rule, f.Pos) {
					all = append(all, f)
				}
			}
		}
	}
	all = append(all, auditDirectives(dirs)...)
	SortFindings(all)
	return all
}

// auditDirectives reports every directive that suppressed nothing during the
// run, including one that names no rule of the suite.
func auditDirectives(dirs map[string]map[int]*ignoreDirective) []Finding {
	var out []Finding
	for _, byLine := range dirs {
		for _, d := range byLine {
			if d.used {
				continue
			}
			out = append(out, Finding{
				Rule:    "ignore",
				Pos:     d.pos,
				Message: fmt.Sprintf("stale //evlint:ignore %s directive suppresses nothing; remove it (or fix the reason) so suppressions cannot outlive the code they excused", d.rule),
			})
		}
	}
	return out
}

// SortFindings orders findings by file, line, column, then rule.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// pathHasSuffix reports whether the package import path equals suffix or ends
// with "/"+suffix — how analyzers scope themselves to project packages
// without hardcoding the module name.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// enclosingFunc returns the innermost function body containing pos, walking
// both declarations and function literals.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			best = body // keep descending: innermost wins
		}
		return true
	})
	return best
}
