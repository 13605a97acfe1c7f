package shardrpc_test

import (
	"context"
	"os"
	"syscall"
	"testing"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

// workerEnvSentinel re-execs the test binary as an evshardd worker: the
// supervisor spawns `os.Executable()` with this variable set and TestMain
// routes the child straight into WorkerMain, so the worker tests exercise
// real processes without needing a prebuilt binary on disk.
const workerEnvSentinel = "EVSHARD_WORKER"

func TestMain(m *testing.M) {
	switch os.Getenv(workerEnvSentinel) {
	case "1":
		os.Exit(shardrpc.WorkerMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	case "gob":
		os.Exit(gobEraWorkerMain())
	}
	os.Exit(m.Run())
}

// workerSupervisorConfig is the base supervisor config for a real-process
// run: the test binary as worker command.
func workerSupervisorConfig(t *testing.T) shardrpc.SupervisorConfig {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return shardrpc.SupervisorConfig{
		Command: []string{exe},
		Env:     []string{workerEnvSentinel + "=1"},
	}
}

// assertWorkersReaped fails the test if any worker process the supervisor
// ever spawned is still alive — the process-leak half of the leak checks
// (mrtest.CheckGoroutines is the goroutine half).
func assertWorkersReaped(t *testing.T, sup *shardrpc.Supervisor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range sup.PIDs() {
		for {
			// Signal 0 probes existence without delivering anything; once
			// the supervisor has killed and reaped the child it errors.
			err := syscall.Kill(pid, 0)
			if err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("worker pid %d still alive after supervisor Close", pid)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// goldenDataset mirrors the stream package's shardDataset: the dedicated
// shard-invariance workload whose fingerprints the golden pins freeze.
func goldenDataset(t *testing.T, practical bool) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 50
	cfg.Density = 6
	cfg.NumWindows = 12
	cfg.Seed = 3
	if practical {
		cfg = cfg.Practical()
		cfg.EIDMissingRate = 0.08
		cfg.VIDMissingRate = 0.04
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

// chaosWorkload mirrors the stream package's chaos workload: the practical
// dataset, its observation log, and the shared engine config.
func chaosWorkload(t *testing.T) (stream.Config, []stream.Observation) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 60
	cfg.Density = 8
	cfg.NumWindows = 16
	cfg = cfg.Practical()
	cfg.EIDMissingRate = 0.1
	cfg.VIDMissingRate = 0.05
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	targets := ds.AllEIDs()[:12]
	_, obs, err := stream.EventsFromDataset(ds, 1_000, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	return stream.Config{
		Targets:    targets,
		WindowMS:   1_000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
		Seed:       7,
	}, obs
}

// engineConfig is the shared engine configuration over a golden dataset.
func engineConfig(ds *dataset.Dataset, targets []ids.EID) stream.Config {
	return stream.Config{
		Targets:    targets,
		WindowMS:   1_000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
		Seed:       7,
	}
}

// batchFingerprint runs the serial batch SS reference under ScanInOrder.
func batchFingerprint(t *testing.T, ds *dataset.Dataset, targets []ids.EID) string {
	t.Helper()
	m, err := core.New(ds, core.Options{
		Algorithm: core.AlgorithmSS,
		Seed:      7,
		ScanOrder: core.ScanInOrder,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatalf("batch Match: %v", err)
	}
	return rep.Fingerprint()
}

// unshardedFingerprint replays the log through a plain engine.
func unshardedFingerprint(t *testing.T, cfg stream.Config, obs []stream.Observation) string {
	t.Helper()
	e, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	rep, err := e.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return rep.Fingerprint()
}

// routerFingerprint replays the log through a router (any runner) and
// finalizes, requiring every in-order observation accepted.
func routerFingerprint(t *testing.T, rcfg stream.RouterConfig, obs []stream.Observation) string {
	t.Helper()
	r, err := stream.NewRouter(rcfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	for i, o := range obs {
		accepted, err := r.Ingest(o)
		if err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
		if !accepted {
			t.Fatalf("Ingest %d: in-order observation dropped as late", i)
		}
	}
	rep, err := r.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return rep.Fingerprint()
}
