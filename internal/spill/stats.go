package spill

import "sync/atomic"

// Stats counts spill activity. All methods are nil-safe so call sites can
// thread an optional *Stats without branching, and atomic so the parallel
// executor's workers can share one instance.
type Stats struct {
	bytesSpilled atomic.Int64
	runsWritten  atomic.Int64
	runsMerged   atomic.Int64
	reloads      atomic.Int64
	evictions    atomic.Int64
}

func (s *Stats) AddBytesSpilled(n int64) {
	if s != nil {
		s.bytesSpilled.Add(n)
	}
}

func (s *Stats) AddRunsWritten(n int64) {
	if s != nil {
		s.runsWritten.Add(n)
	}
}

func (s *Stats) AddRunsMerged(n int64) {
	if s != nil {
		s.runsMerged.Add(n)
	}
}

func (s *Stats) AddReloads(n int64) {
	if s != nil {
		s.reloads.Add(n)
	}
}

func (s *Stats) AddEvictions(n int64) {
	if s != nil {
		s.evictions.Add(n)
	}
}

// Snapshot is a plain-value copy of the counters, safe to embed in reports
// and compare in tests.
type Snapshot struct {
	BytesSpilled int64
	RunsWritten  int64
	RunsMerged   int64
	Reloads      int64
	Evictions    int64
}

// Snapshot returns the current counter values. Nil-safe: a nil Stats
// snapshots to all zeros.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		BytesSpilled: s.bytesSpilled.Load(),
		RunsWritten:  s.runsWritten.Load(),
		RunsMerged:   s.runsMerged.Load(),
		Reloads:      s.reloads.Load(),
		Evictions:    s.evictions.Load(),
	}
}
