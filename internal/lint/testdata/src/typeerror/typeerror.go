// Package typeerror fixtures: one type error, which must fail the load.
package typeerror

// Half returns a string where its signature promises an int.
func Half(n int) int { return "half" }
