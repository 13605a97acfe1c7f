package perf

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Options parameterizes one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how much timed work the run accumulates.
	Seconds float64
	// Trace selects the traced run that reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	// Short shrinks every world to test size.
	Short bool
	// OutDir receives traces and scratch files; BinDir holds the evserve
	// and evshardd binaries built from this tree.
	OutDir string
	BinDir string
	// BuildS is how long the prepare step's go build took, reported as
	// bench.build_s.
	BuildS float64
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports: the contract's last-line JSON object.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// Notes are human-readable lines (sample counts, failed checks) printed
	// before the JSON line.
	Notes []string `json:"-"`
}

// roundResult is what one round of a workload measured: one full set-up,
// then timed operations over the world it built.
type roundResult struct {
	setupS float64
	// opS is the time of each timed operation, in seconds, divided by the
	// host's slowdown while it ran; rawS is the same as the clock read it.
	opS  []float64
	rawS []float64
	// slow is the host's slowdown measured around each operation.
	slow []float64
	// items is the number of items (targets or observations) one operation
	// processes.
	items float64
	// latMS, when set, holds per-result latency samples that replace the
	// operation time as the latency metric (the served path).
	latMS []float64
	// peakMB is the round's peak resident set: this process plus its
	// children, from the round's start to the end of its verification.
	peakMB float64
	// accuracy is the share of the round's scored targets given their true
	// VID; every round of a workload scores the same number of targets.
	accuracy float64
	scored   int
	// attempted and failed count operations and verification checks.
	attempted, failed int
	notes             []string
}

// check counts one verification check and records it when it failed.
func (rr *roundResult) check(ok bool, format string, args ...any) {
	rr.attempted++
	if !ok {
		rr.failed++
		rr.notes = append(rr.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload. The runner calls setup (timed), then
// warm once and op repeatedly with a GC before each, then verify.
type workload interface {
	// rounds is how many independent worlds a run of the given length
	// measures. It depends on nothing else, so equal arguments repeat the
	// same work.
	rounds(seconds float64) int
	// singleOp reports that a round holds exactly one timed operation: a
	// served session needs a fresh server.
	singleOp() bool
	setup(env *env, round int) error
	warm(env *env) error
	op(env *env) (opSample, error)
	verify(env *env, rr *roundResult) error
	teardown(env *env)
	// layers reports this round's world to the per-layer probes.
	layers(env *env) (*probeInput, error)
}

// opSample is one timed operation, as the clock read it.
type opSample struct {
	seconds float64
	items   float64
	latMS   []float64
}

// env is the per-run context handed to workloads and probes.
type env struct {
	opts  Options
	tr    *Tracer
	procs *procSet
	yard  *yardstick
	tmp   string // scratch directory under OutDir, removed on exit
}

func (e *env) logf(format string, args ...any) {
	if e.opts.Log != nil {
		fmt.Fprintf(e.opts.Log, format+"\n", args...)
	}
}

func newWorkload(name string, short bool) (workload, error) {
	switch name {
	case "batch-paper":
		return &batchWorkload{short: short}, nil
	case "batch-sparse":
		return &batchWorkload{sparse: true, short: short}, nil
	case "stream-replay":
		return &streamWorkload{mode: modeReplay, short: short}, nil
	case "stream-remote":
		return &streamWorkload{mode: modeRemote, short: short}, nil
	case "stream-recover":
		return &streamWorkload{mode: modeRecover, short: short}, nil
	case "serve-ingest":
		return &serveWorkload{short: short}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Run executes one workload and returns its metrics. Every child process
// is stopped and the scratch directory removed before Run returns.
func Run(opts Options) (res *Result, err error) {
	w, err := newWorkload(opts.Workload, opts.Short)
	if err != nil {
		return nil, err
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", opts.Seconds)
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opts.OutDir, "tmp-")
	if err != nil {
		return nil, err
	}
	e := &env{opts: opts, procs: &procSet{}, yard: newYardstick(), tmp: tmp}
	stopSignals := e.procs.killOnSignal(tmp)
	defer func() {
		stopSignals()
		e.procs.killAll()
		if leaked := e.procs.leaked(); len(leaked) > 0 && err == nil {
			err = fmt.Errorf("leaked child processes: %v", leaked)
		}
		if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
			err = rerr
		}
	}()
	if opts.Trace {
		return runTraced(e, w)
	}
	return runEndToEnd(e, w)
}

// runRound sets a world up, times operations over it for budget seconds and
// verifies the outputs. It tears the world down unless it succeeds with keep
// set, in which case the caller does.
func runRound(e *env, w workload, round int, budget float64, keep bool) (rr *roundResult, err error) {
	rr = &roundResult{}
	defer func() {
		if err != nil || !keep {
			w.teardown(e)
		}
	}()
	resetPeakRSS()
	before := e.yard.mark()
	endSetup := e.tr.Span("bench", fmt.Sprintf("setup round %d", round))
	start := time.Now()
	err = w.setup(e, round)
	rr.setupS = time.Since(start).Seconds()
	endSetup()
	if err != nil {
		return nil, fmt.Errorf("round %d setup: %w", round, err)
	}
	rr.setupS /= (before + e.yard.mark()) / 2
	if err := w.warm(e); err != nil {
		return nil, fmt.Errorf("round %d warm-up: %w", round, err)
	}
	// One mark between consecutive operations serves both of them.
	before = e.yard.mark()
	for spent := 0.0; len(rr.opS) == 0 || (spent < budget && !w.singleOp()); {
		runtime.GC()
		endOp := e.tr.Span("bench", "op")
		s, err := w.op(e)
		endOp()
		after := e.yard.mark()
		slow := (before + after) / 2
		before = after
		rr.slow = append(rr.slow, slow)
		rr.attempted++
		if err != nil {
			return nil, fmt.Errorf("round %d op %d: %w", round, len(rr.opS), err)
		}
		rr.opS = append(rr.opS, s.seconds/slow)
		rr.rawS = append(rr.rawS, s.seconds)
		rr.items = s.items
		for _, ms := range s.latMS {
			rr.latMS = append(rr.latMS, ms/slow)
		}
		spent += s.seconds
	}
	if err := w.verify(e, rr); err != nil {
		return nil, fmt.Errorf("round %d verify: %w", round, err)
	}
	if rr.peakMB, err = e.procs.peakRSSMB(); err != nil {
		return nil, fmt.Errorf("round %d: %w", round, err)
	}
	return rr, nil
}

// runEndToEnd is the untraced run: several rounds, each a fresh world, and
// every end-to-end metric as a median over all of the run's timed work.
func runEndToEnd(e *env, w workload) (*Result, error) {
	rounds := w.rounds(e.opts.Seconds)
	budget := e.opts.Seconds / float64(rounds)
	var (
		setups, ops, raws, lats, slows, accs, peaks []float64
		items                                       float64
		scored                                      int
		res                                         = &Result{Metrics: make(map[string]Value)}
		spent                                       float64
	)
	for r := 0; r < rounds; r++ {
		rr, err := runRound(e, w, r, budget, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rr.setupS)
		ops = append(ops, rr.opS...)
		raws = append(raws, rr.rawS...)
		slows = append(slows, rr.slow...)
		lats = append(lats, rr.latMS...)
		items = rr.items
		accs = append(accs, rr.accuracy)
		peaks = append(peaks, rr.peakMB)
		scored += rr.scored
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		res.Notes = append(res.Notes, rr.notes...)
		for _, s := range rr.rawS {
			spent += s
		}
		e.logf("round %d: setup %.3fs, %d ops, median op %.4fs by the clock, host slowdown %.2f, peak RSS %.0f MB", r, rr.setupS, len(rr.opS), Median(rr.rawS), Median(rr.slow), rr.peakMB)
	}
	opMedian := Median(ops)
	latency := opMedian * 1e3
	latN := len(ops)
	if len(lats) > 0 {
		latency, latN = Median(lats), len(lats)
	}
	values := map[string]float64{
		"latency_ms":  latency,
		"items_per_s": items / opMedian,
		"accuracy":    Mean(accs),
		"peak_rss_mb": Median(peaks),
		"setup_s":     Median(setups),
	}
	for _, m := range EndToEnd {
		res.Metrics[m.Name] = Value{Value: values[m.Name], Unit: m.Unit}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("timed work %.2fs in %d operations over %d set-ups; latency_ms from %d samples; accuracy over %d targets",
			spent, len(ops), len(setups), latN, scored))
	res.Notes = append(res.Notes, fmt.Sprintf("median operation %.4fs by the clock, %.4fs divided by the host's slowdown (median %.2f)",
		Median(raws), opMedian, Median(slows)))
	res.Correct = res.Failed == 0
	return res, nil
}

// tracePath is where a workload's span file is written.
func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}
