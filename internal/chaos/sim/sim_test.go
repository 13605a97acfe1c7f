package sim

import (
	"context"
	"testing"
	"time"

	"evmatching/internal/chaos"
	"evmatching/internal/mrjobs"
	"evmatching/internal/mrtest"
)

// testFaults is the standard fault mix: every class enabled, aggressively
// enough that a 50-schedule run exercises each recovery path.
func testFaults() chaos.Config {
	return chaos.Config{
		CrashBeforeExecute: 0.04,
		CrashBeforeReport:  0.04,
		Stall:              0.10,
		StallFor:           60 * time.Millisecond,
		DuplicateReport:    0.10,
	}
}

// TestSimFingerprintStableUnderFaults is the tentpole assertion: ≥50 seeded
// fault schedules, each running the full SS pipeline on a real cluster, all
// reproducing the fault-free fingerprint byte for byte with no goroutine
// leaks.
func TestSimFingerprintStableUnderFaults(t *testing.T) {
	mrtest.CheckGoroutines(t)
	cfg := Config{Seed: 1, Faults: testFaults()}
	if testing.Short() {
		cfg.Schedules = 8
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && res.Schedules < 50 {
		t.Fatalf("ran %d schedules; want >= 50", res.Schedules)
	}
	if !res.OK() {
		t.Fatalf("sim not clean:\n mismatches=%v\n failures=%v\n leaks=%v",
			res.Mismatches, res.Failures, res.Leaks)
	}
	if res.BaselineFingerprint == "" {
		t.Error("empty baseline fingerprint")
	}
	// The fault mix must actually have exercised the recovery machinery:
	// crashed workers' leases evicted and their tasks re-executed.
	if res.Stats.Retries == 0 || res.Stats.Evictions == 0 {
		t.Errorf("requeue-and-re-execute path never ran: %+v", res.Stats)
	}
	t.Logf("schedules=%d stats=%+v", res.Schedules, res.Stats)
}

// TestSimReproducibleFromSeed reruns a small schedule set and checks the
// outcome (not the cost counters) is identical.
func TestSimReproducibleFromSeed(t *testing.T) {
	mrtest.CheckGoroutines(t)
	cfg := Config{Seed: 7, Schedules: 4, Faults: testFaults()}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BaselineFingerprint != b.BaselineFingerprint {
		t.Error("baseline fingerprint changed between identical runs")
	}
	if len(a.Mismatches) != len(b.Mismatches) || len(a.Failures) != len(b.Failures) {
		t.Errorf("outcome not reproducible: %+v vs %+v", a, b)
	}
}

// TestSimPracticalMode covers the vague-zone practical dataset.
func TestSimPracticalMode(t *testing.T) {
	if testing.Short() {
		t.Skip("practical-mode sim skipped in -short mode")
	}
	mrtest.CheckGoroutines(t)
	res, err := Run(context.Background(), Config{
		Seed: 3, Schedules: 6, Practical: true, Faults: testFaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("practical sim not clean:\n mismatches=%v\n failures=%v\n leaks=%v",
			res.Mismatches, res.Failures, res.Leaks)
	}
}

// TestSimFaultFree checks the harness itself is quiet with nothing injected.
func TestSimFaultFree(t *testing.T) {
	mrtest.CheckGoroutines(t)
	res, err := Run(context.Background(), Config{Seed: 5, Schedules: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("fault-free sim not clean: %+v", res)
	}
}

// TestSimRejectsBadFaultConfig surfaces injector validation errors.
func TestSimRejectsBadFaultConfig(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Seed: 1, Schedules: 1, Faults: chaos.Config{Stall: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Error("want per-schedule failure for invalid fault config")
	}
}

// TestSimBatchedParallelSchedule pins fault tolerance of the batched V
// stage: with more targets than four per worker, every auto-sized map task
// owns multiple scenarios or assignments, so a crash mid-batch forces the
// coordinator to re-execute the whole batch on another worker. The shared
// extraction cache and the batch task's buffered result write must keep
// re-execution idempotent — the fingerprint stays byte-identical to the
// fault-free baseline.
func TestSimBatchedParallelSchedule(t *testing.T) {
	mrtest.CheckGoroutines(t)
	cfg := Config{Seed: 11, Schedules: 6, Workers: 3, Targets: 16, Faults: testFaults()}
	if b := mrjobs.BatchFor(cfg.Targets, cfg.Workers); b < 2 {
		t.Fatalf("assignment batches hold %d item(s); the schedule would never crash mid-batch", b)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("batched sim not clean:\n mismatches=%v\n failures=%v\n leaks=%v",
			res.Mismatches, res.Failures, res.Leaks)
	}
	// Cross-check against one-item batches (four workers over 16 targets):
	// batching is a scheduling choice and must not alter the computed report.
	plain, err := Run(context.Background(), Config{Seed: 11, Schedules: 1, Workers: 4, Targets: cfg.Targets})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineFingerprint != plain.BaselineFingerprint {
		t.Error("batch size changed the baseline fingerprint")
	}
}
