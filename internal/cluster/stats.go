package cluster

import "sync/atomic"

// Stats counts the coordinator's fault-recovery actions since creation. The
// counters accumulate across jobs; Coordinator.Stats returns a copy.
type Stats struct {
	// Retries counts task claims beyond a task's first attempt — work
	// re-executed after a crash, stall, or lost report.
	Retries int64
	// Evictions counts in-progress leases revoked because the assigned
	// worker went silent past the heartbeat timeout or overran its lease.
	Evictions int64
	// SpeculativeDispatches counts straggler tasks handed to a second worker
	// while the first was still running.
	SpeculativeDispatches int64
	// SpeculativeWins counts tasks whose speculative copy reported first.
	SpeculativeWins int64
	// StaleReports counts reports for already-completed tasks or finished
	// jobs — the duplicate/reordered deliveries the coordinator must absorb.
	StaleReports int64
	// DeadWorkers counts workers declared dead by heartbeat timeout.
	DeadWorkers int64
}

// Add returns the field-wise sum of two stat snapshots, for aggregating
// across schedules or coordinators.
func (s Stats) Add(o Stats) Stats {
	s.Retries += o.Retries
	s.Evictions += o.Evictions
	s.SpeculativeDispatches += o.SpeculativeDispatches
	s.SpeculativeWins += o.SpeculativeWins
	s.StaleReports += o.StaleReports
	s.DeadWorkers += o.DeadWorkers
	return s
}

// statsCounters is the coordinator's live counter set. The fields are typed
// atomics, so plain access is a compile error rather than a latent data race
// (the module uses no untyped sync/atomic function; internal/lint's tests
// enforce it), and Stats can snapshot without contending on c.mu while a
// sweep or report holds it. Increments happen under c.mu today; the atomics make the
// counters safe to bump from any future path that doesn't.
type statsCounters struct {
	retries               atomic.Int64
	evictions             atomic.Int64
	speculativeDispatches atomic.Int64
	speculativeWins       atomic.Int64
	staleReports          atomic.Int64
	deadWorkers           atomic.Int64
}

// Stats snapshots the coordinator's fault-recovery counters. Lock-free: each
// field is loaded atomically, so a snapshot taken mid-sweep is a valid (if
// momentarily torn across fields) set of monotone counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Retries:               c.stats.retries.Load(),
		Evictions:             c.stats.evictions.Load(),
		SpeculativeDispatches: c.stats.speculativeDispatches.Load(),
		SpeculativeWins:       c.stats.speculativeWins.Load(),
		StaleReports:          c.stats.staleReports.Load(),
		DeadWorkers:           c.stats.deadWorkers.Load(),
	}
}
