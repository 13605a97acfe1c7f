// Package ignoreaudit fixtures: a directive that suppresses nothing is stale
// and must itself fail the build.
package ignoreaudit

// Total ranges over a slice, which is already deterministic — the directive
// below suppresses nothing and the audit must flag it.
func Total(xs []int) int {
	total := 0
	//evlint:ignore maprange slice iteration is already deterministic
	for _, v := range xs {
		total += v
	}
	return total
}

// Count's directive misspells its rule: naming no rule of the suite, it
// suppresses nothing and the audit must flag it too.
func Count(xs []int) int {
	//evlint:ignore maprnage slice length is already deterministic
	return len(xs)
}
