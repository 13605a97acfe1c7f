// Package sim executes the full SS pipeline (split → filter → refine) on a
// real coordinator/worker cluster under seeded fault schedules and checks
// that the final Report.Fingerprint is byte-identical to the fault-free
// baseline. One Run covers many schedules: the dataset, targets, and
// matching options stay fixed while the fault schedule (and the
// coordinator's recovery jitter) varies per schedule seed, so the harness
// demonstrates that crashes, stalls, lost/duplicated results, and heartbeat
// loss never change what EV-Matching computes — only what it costs.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"evmatching/internal/chaos"
	"evmatching/internal/cluster"
	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/mapreduce"
	"evmatching/internal/mrtest"
)

// Config parameterizes one simulation run.
type Config struct {
	// Seed determines everything: the dataset, the targets, the matching
	// randomization, and (combined with the schedule index) every fault
	// decision. Equal configs produce equal Result.Mismatches/Failures.
	Seed int64
	// Schedules is how many fault schedules to run; 0 means 50.
	Schedules int
	// Workers is the cluster size per schedule; 0 means 3.
	Workers int
	// Faults shapes the injected fault distribution; the zero value injects
	// nothing (useful to smoke-test the harness itself).
	Faults chaos.Config
	// Dataset size knobs; zeros mean 24 persons / 6 density / 8 windows.
	Persons int
	Density float64
	Windows int
	// Targets is how many EIDs to match; 0 means 5.
	Targets int
	// Practical generates the vague-zone practical world instead of the
	// ideal one.
	Practical bool
}

func (c *Config) normalize() {
	if c.Schedules == 0 {
		c.Schedules = 50
	}
	if c.Workers == 0 {
		c.Workers = 3
	}
	if c.Persons == 0 {
		c.Persons = 24
	}
	if c.Density == 0 {
		c.Density = 6
	}
	if c.Windows == 0 {
		c.Windows = 8
	}
	if c.Targets == 0 {
		c.Targets = 5
	}
}

// Result aggregates a simulation run. The pipeline outcome (baseline
// fingerprint, mismatches, failures, leaks) is reproducible from the seed;
// the cost counters (Stats, Fallbacks) depend on real scheduling timing and
// vary between runs — they report how much recovery machinery exercised, not
// what was computed.
type Result struct {
	// Schedules is how many fault schedules ran.
	Schedules int
	// BaselineFingerprint is the fault-free serial run's fingerprint.
	BaselineFingerprint string
	// Mismatches lists the schedule indices whose fingerprint diverged.
	Mismatches []int
	// Failures lists per-schedule errors ("schedule 12: ...").
	Failures []string
	// Leaks lists goroutines schedules left behind.
	Leaks []string
	// Stats sums the coordinators' fault-recovery counters.
	Stats cluster.Stats
	// Fallbacks counts jobs degraded to the in-process serial path.
	Fallbacks int64
}

// OK reports whether every schedule reproduced the baseline cleanly.
func (r *Result) OK() bool {
	return len(r.Mismatches) == 0 && len(r.Failures) == 0 && len(r.Leaks) == 0
}

// Run executes cfg.Schedules fault schedules and compares each outcome to
// the fault-free baseline.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.normalize()
	dsCfg := dataset.DefaultConfig()
	if cfg.Practical {
		dsCfg = dsCfg.Practical()
	}
	dsCfg.Seed = cfg.Seed
	dsCfg.NumPersons = cfg.Persons
	dsCfg.Density = cfg.Density
	dsCfg.NumWindows = cfg.Windows
	ds, err := dataset.Generate(dsCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: generate dataset: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	targets := ds.SampleEIDs(cfg.Targets, rng)

	// Fault-free baseline on the serial reference executor.
	base, err := matchOnce(ctx, ds, targets, cfg.Seed, cfg.Workers, mapreduce.SerialExecutor{})
	if err != nil {
		return nil, fmt.Errorf("sim: baseline: %w", err)
	}

	res := &Result{Schedules: cfg.Schedules, BaselineFingerprint: base}
	for i := 0; i < cfg.Schedules; i++ {
		schedSeed := cfg.Seed*1_000_003 + int64(i) + 1
		fp, stats, fallbacks, leaked, err := runSchedule(ctx, ds, targets, cfg, i, schedSeed)
		res.Stats = res.Stats.Add(stats)
		res.Fallbacks += fallbacks
		res.Leaks = append(res.Leaks, leaked...)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("schedule %d: %v", i, err))
			continue
		}
		if fp != base {
			res.Mismatches = append(res.Mismatches, i)
		}
	}
	return res, nil
}

// runSchedule boots a fresh cluster, injects the schedule's faults, runs the
// full pipeline, and tears everything down, checking for leaked goroutines.
func runSchedule(ctx context.Context, ds *dataset.Dataset, targets []ids.EID, cfg Config, sched int, schedSeed int64) (fp string, stats cluster.Stats, fallbacks int64, leaked []string, err error) {
	snap := mrtest.TakeLeakSnapshot()
	dir, err := os.MkdirTemp("", "evsim-")
	if err != nil {
		return "", stats, 0, nil, err
	}
	defer os.RemoveAll(dir)

	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Dir:              dir,
		TaskTimeout:      200 * time.Millisecond,
		HeartbeatTimeout: 100 * time.Millisecond,
		RetryBase:        5 * time.Millisecond,
		RetryMax:         80 * time.Millisecond,
		SpeculativeAfter: 40 * time.Millisecond,
		PoolTimeout:      time.Second,
		Seed:             schedSeed,
	})
	if err != nil {
		return "", stats, 0, nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", stats, 0, nil, err
	}
	addr := coord.Serve(lis)
	inj, err := chaos.NewInjector(schedSeed, cfg.Faults)
	if err != nil {
		_ = coord.Close()
		return "", stats, 0, nil, err
	}
	reg := cluster.NewRegistry()
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for slot := 0; slot < cfg.Workers; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			superviseWorker(wctx, addr, dir, reg, inj, sched, slot)
		}(slot)
	}
	shutdown := func() {
		_ = coord.Close()
		cancel()
		wg.Wait()
	}

	exec, err := cluster.NewExecutor(coord, reg)
	if err != nil {
		shutdown()
		return "", stats, 0, nil, err
	}
	exec.Fallback = mapreduce.SerialExecutor{}
	fp, err = matchOnce(ctx, ds, targets, cfg.Seed, cfg.Workers, exec)
	stats = coord.Stats()
	fallbacks = exec.Fallbacks()
	shutdown()
	if extra := snap.Leaked(2 * time.Second); len(extra) > 0 {
		for _, g := range extra {
			leaked = append(leaked, fmt.Sprintf("schedule %d: %s", sched, g))
		}
	}
	return fp, stats, fallbacks, leaked, err
}

// superviseWorker keeps one worker slot populated: when an injected fault
// crashes the worker, a new incarnation (with a fresh ID, so fresh fault
// draws) replaces it until the cluster shuts down.
func superviseWorker(ctx context.Context, addr, dir string, reg *cluster.Registry, inj *chaos.Injector, sched, slot int) {
	for incarnation := 0; ctx.Err() == nil; incarnation++ {
		w, err := cluster.NewWorker(addr, cluster.WorkerConfig{
			ID:                fmt.Sprintf("sim%d-w%d#%d", sched, slot, incarnation),
			Dir:               dir,
			Registry:          reg,
			PollInterval:      2 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond,
			Faults:            inj,
		})
		if err != nil {
			return // coordinator gone: shutting down
		}
		if err := w.Run(ctx); err != nil {
			// Context cancellation or a torn connection: stop supervising.
			// A nil return is an injected crash or TaskExit; loop either
			// way — a post-Close restart exits on the dial above.
			return
		}
	}
}

// matchOnce runs the full SS pipeline once and returns its fingerprint. The
// V stage's tasks are sized for the cluster's workers (mrjobs.BatchFor), so a
// schedule's batching does not depend on the host's GOMAXPROCS.
func matchOnce(ctx context.Context, ds *dataset.Dataset, targets []ids.EID, seed int64, workers int, exec mapreduce.Executor) (string, error) {
	m, err := core.New(ds, core.Options{
		Mode:     core.ModeParallel,
		Workers:  workers,
		Seed:     seed,
		Executor: exec,
	})
	if err != nil {
		return "", err
	}
	rep, err := m.Match(ctx, targets)
	if err != nil {
		return "", err
	}
	return rep.Fingerprint(), nil
}
