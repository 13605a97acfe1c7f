package cluster

import "sync/atomic"

// Stats counts the coordinator's fault-recovery actions since creation. The
// counters accumulate across jobs; Coordinator.Stats returns a copy.
type Stats struct {
	// Retries counts task claims beyond a task's first attempt — work
	// re-executed after a crash or an expired lease.
	Retries int64
	// Evictions counts in-progress leases revoked because the holding
	// worker's connection closed or the lease expired.
	Evictions int64
	// StaleReports counts reports for already-completed tasks or finished
	// jobs — the duplicate/reordered deliveries the coordinator must absorb.
	StaleReports int64
}

// Add returns the field-wise sum of two stat snapshots, for aggregating
// across schedules or coordinators.
func (s Stats) Add(o Stats) Stats {
	s.Retries += o.Retries
	s.Evictions += o.Evictions
	s.StaleReports += o.StaleReports
	return s
}

// statsCounters is the coordinator's live counter set. The fields are typed
// atomics (the module uses no untyped sync/atomic function; internal/lint's
// tests enforce it), so Stats can snapshot without contending on c.mu.
type statsCounters struct {
	retries      atomic.Int64
	evictions    atomic.Int64
	staleReports atomic.Int64
}

// Stats snapshots the coordinator's fault-recovery counters. Lock-free: a
// snapshot taken mid-eviction is a valid (if momentarily torn across fields)
// set of monotone counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Retries:      c.stats.retries.Load(),
		Evictions:    c.stats.evictions.Load(),
		StaleReports: c.stats.staleReports.Load(),
	}
}
