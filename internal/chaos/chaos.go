// Package chaos is a deterministic, seed-driven fault-injection layer for
// the cluster runtime. An Injector implements cluster.FaultPlan: every fault
// decision is a pure hash of (seed, identifying coordinates), never of call
// order, so a fault schedule is reproducible from its seed regardless of
// goroutine interleaving — the property the sim harness relies on when it
// asserts fingerprint identity with the fault-free run (see chaos/sim).
package chaos

import (
	"fmt"
	"hash/fnv"
	"time"

	"evmatching/internal/cluster"
)

// DefaultStallFor is the straggler delay when Config.StallFor is zero.
const DefaultStallFor = 200 * time.Millisecond

// Config sets the per-event probabilities of each fault class. Probabilities
// are in [0, 1] and independent; the zero Config injects nothing.
type Config struct {
	// CrashBeforeExecute is the chance a claimed task's worker vanishes
	// before doing any work.
	CrashBeforeExecute float64
	// CrashBeforeReport is the chance the worker vanishes after writing its
	// output files but before reporting.
	CrashBeforeReport float64
	// Stall is the chance a task's report is delayed by StallFor.
	Stall float64
	// StallFor is the straggler delay; 0 means DefaultStallFor.
	StallFor time.Duration
	// DuplicateReport is the chance a task's report is delivered twice.
	DuplicateReport float64
}

// validate rejects out-of-range probabilities.
func (c *Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"CrashBeforeExecute", c.CrashBeforeExecute},
		{"CrashBeforeReport", c.CrashBeforeReport},
		{"Stall", c.Stall},
		{"DuplicateReport", c.DuplicateReport},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: probability %s=%g outside [0,1]", p.name, p.v)
		}
	}
	if c.StallFor < 0 {
		return fmt.Errorf("chaos: negative fault-shape parameter")
	}
	return nil
}

// Injector is a seeded cluster.FaultPlan. It is stateless after creation and
// safe for concurrent use from any number of workers.
type Injector struct {
	seed int64
	cfg  Config
}

var _ cluster.FaultPlan = (*Injector)(nil)

// NewInjector builds an injector whose decisions are fully determined by
// seed and cfg.
func NewInjector(seed int64, cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.StallFor == 0 {
		cfg.StallFor = DefaultStallFor
	}
	return &Injector{seed: seed, cfg: cfg}, nil
}

// TaskFault implements cluster.FaultPlan. Each fault class draws an
// independent uniform fraction from the hash of (seed, class salt, worker,
// job, kind, task), so the same attempt coordinates always yield the same
// fault — and a re-claimed task on a different worker draws fresh ones.
func (in *Injector) TaskFault(workerID, jobID string, kind cluster.TaskKind, taskID int) cluster.TaskFault {
	roll := func(salt string, p float64) bool {
		if p <= 0 {
			return false
		}
		return in.frac(salt, workerID, jobID, int(kind), taskID) < p
	}
	f := cluster.TaskFault{
		CrashBeforeExecute: roll("crash-pre", in.cfg.CrashBeforeExecute),
		CrashBeforeReport:  roll("crash-post", in.cfg.CrashBeforeReport),
		DuplicateReport:    roll("dup", in.cfg.DuplicateReport),
	}
	if roll("stall", in.cfg.Stall) {
		f.StallBeforeReport = in.cfg.StallFor
	}
	return f
}

// frac hashes the decision coordinates into a uniform [0, 1) fraction.
func (in *Injector) frac(salt, worker, job string, kind, n int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d|%d", in.seed, salt, worker, job, kind, n)
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}
