package lint

import (
	"fmt"
	"go/ast"
)

// seedcheckFuncs are the math/rand package-level functions backed by the
// shared global source.
var seedcheckFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// SeedCheckAnalyzer flags uses of math/rand's global source in non-test
// code. Every paper figure must be reproducible from a recorded seed
// (EXPERIMENTS.md), so randomness has to flow through an explicit, seeded
// *rand.Rand (see core.Matcher.rngFor) rather than the process-global
// generator.
func SeedCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "seedcheck",
		Run:  runSeedCheck,
	}
}

func runSeedCheck(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !seedcheckFuncs[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !isRandPackage(p, id) {
				return true
			}
			out = append(out, Finding{
				Rule: "seedcheck",
				Pos:  p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("rand.%s draws from the global source and cannot be seeded per run; thread a seeded *rand.Rand instead",
					sel.Sel.Name),
			})
			return true
		})
	}
	return out
}

// isRandPackage reports whether id names the math/rand (or math/rand/v2)
// package.
func isRandPackage(p *Package, id *ast.Ident) bool {
	return importsPath(p, id, "math/rand") || importsPath(p, id, "math/rand/v2")
}
