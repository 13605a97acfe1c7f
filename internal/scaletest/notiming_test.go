//go:build !scaletiming

package scaletest

// assertTiming is off under a plain go test: packages run side by side
// there, and a wall-clock ratio read 1.35 against its 1.15 bound with
// others beside it and 0.89 alone. The counts carry the verdict.
const assertTiming = false
