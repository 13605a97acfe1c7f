//go:build scaletiming

package scaletest

// assertTiming turns on TestScaleSmoke's wall-clock ratio assertions. Only
// CI's scale-smoke job builds with -tags scaletiming: it runs this package
// alone, where a ratio measures the index, not the neighbours' load.
const assertTiming = true
