package cluster

import "time"

// TaskFault describes injected misbehaviour for one task execution. The zero
// value means the worker executes and reports faithfully. Faults model the
// failure classes that dominate real clusters (see package chaos for the
// seeded implementation): silent machine loss, stragglers, and a duplicating
// result path. A report lost while the worker lives fails its Call, which
// ends Run and closes the connection: that is CrashBeforeReport.
type TaskFault struct {
	// CrashBeforeExecute makes the worker vanish after claiming the task but
	// before doing any work — its closed connection requeues the task.
	CrashBeforeExecute bool
	// CrashBeforeReport makes the worker vanish after writing its output
	// files but before reporting — the re-executed attempt overwrites them
	// harmlessly via atomic renames.
	CrashBeforeReport bool
	// StallBeforeReport delays the report by this duration, modelling a
	// straggling machine.
	StallBeforeReport time.Duration
	// DuplicateReport delivers the report twice; combined with stalls on
	// other workers this also reorders deliveries.
	DuplicateReport bool
}

// FaultPlan decides the faults a worker injects. Implementations must be
// safe for concurrent use and should derive every decision deterministically
// from the identifying arguments (not from call order), so a fault schedule
// is reproducible from its seed regardless of goroutine interleaving.
type FaultPlan interface {
	// TaskFault returns the fault for one task execution attempt.
	TaskFault(workerID, jobID string, kind TaskKind, taskID int) TaskFault
}
