package perf

import (
	"strconv"
	"time"
)

// The benchmark runs on shared 2-core machines whose speed drifts with what
// the neighbours do, for seconds or minutes at a time, which no median
// inside a 10 s run averages away (bench/README.md has the measurements).
// Every timed end-to-end sample is therefore divided by the host's slowdown
// while it was taken: the time of a fixed yardstick run before and after
// the sample, over the yardstick's time on a calm host. On a calm host the
// factor is 1 and the metrics read as wall-clock time.
//
// The host slows down in more than one way, and the workloads feel each
// way differently, so the yardstick has three parts of about a third of its
// time each: a dependent multiply chain (core speed), a dependent walk
// through a 32 MiB table (cache and TLB misses), and small string-keyed map
// inserts with their allocations (the allocator, the collector and the
// kernel's page handling, which is what the streaming and served paths are
// made of). Measured over four sets of eight runs per workload, each part
// alone left one workload or another with twice the spread of the three
// together.
const (
	yardChainSteps = 4_000_000
	yardWalkSteps  = 40_000
	yardInserts    = 40_000
	yardTableLen   = 1 << 23 // int32 entries: 32 MiB

	// yardReferenceS is the yardstick's time on a calm host of the kind the
	// benchmark was written on. It only fixes the scale of reported values.
	yardReferenceS = 0.0164

	// A mark runs the yardstick once per yardEvery since the previous mark,
	// at least once and at most yardMaxRuns times, and takes the median: an
	// operation that lasts seconds has few marks around it, so each has to
	// be a steadier reading than one run gives.
	yardEvery   = 500 * time.Millisecond
	yardMaxRuns = 5
)

// yardstick measures the host's speed from inside the benchmark process.
type yardstick struct {
	// table holds one cycle through all of its entries whose consecutive
	// steps lie 31 KiB apart, so every load of the walk misses the cache
	// line and the page of the one before.
	table []int32
	pos   int32
	chain uint64
	last  time.Time // when the previous mark ended
}

func newYardstick() *yardstick {
	y := &yardstick{table: make([]int32, yardTableLen), chain: 1, last: time.Now()}
	// x → 7921x + 13 mod 2^23 has full period (7921 ≡ 1 mod 4, 13 odd).
	for i := range y.table {
		y.table[i] = int32((i*7921 + 13) % yardTableLen)
	}
	return y
}

// run does the yardstick's fixed work once and returns its time over the
// reference time.
func (y *yardstick) run() float64 {
	start := time.Now()
	h := y.chain
	for i := 0; i < yardChainSteps; i++ {
		h = (h ^ uint64(i&255)) * 1099511628211
	}
	y.chain = h
	j := y.pos
	for i := 0; i < yardWalkSteps; i++ {
		j = y.table[j]
	}
	y.pos = j
	m := make(map[string]int)
	for i := 0; i < yardInserts; i++ {
		m["eid-"+strconv.Itoa(i)] = i
	}
	if len(m) != yardInserts {
		panic("yardstick: map lost an insert") // unreachable; keeps the loop alive
	}
	return time.Since(start).Seconds() / yardReferenceS
}

// mark returns the host's slowdown now. The slowdown while something ran is
// the mean of the marks before and after it.
func (y *yardstick) mark() float64 {
	runs := min(max(int(time.Since(y.last)/yardEvery), 1), yardMaxRuns)
	samples := make([]float64, runs)
	for i := range samples {
		samples[i] = y.run()
	}
	y.last = time.Now()
	return Median(samples)
}
