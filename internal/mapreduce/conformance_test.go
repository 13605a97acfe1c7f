package mapreduce_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"evmatching/internal/cluster"
	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/mapreduce"
	"evmatching/internal/mrtest"
	"evmatching/internal/spill"
)

func TestSerialExecutorConformance(t *testing.T) {
	mrtest.Conformance(t, mapreduce.SerialExecutor{})
}

func TestParallelExecutorConformance(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mrtest.Conformance(t, mapreduce.ParallelExecutor{Workers: workers})
		})
	}
}

// The budgeted external-merge shuffle must satisfy the same executor
// contract bit for bit, even at a one-byte budget (spill on every record).
func TestSpilledParallelExecutorConformance(t *testing.T) {
	for _, budget := range []int64{1, 512} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			mrtest.Conformance(t, mapreduce.ParallelExecutor{
				Workers:   3,
				MemBudget: budget,
				SpillDir:  t.TempDir(),
			})
		})
	}
}

// startClusterExecutor boots a coordinator with in-process workers over real
// localhost RPC and returns the adapted executor. This test package sits
// outside the import cycle, so it can exercise the distributed executor
// against the same conformance contract as the in-process ones.
func startClusterExecutor(t *testing.T, nWorkers int) *cluster.Executor {
	t.Helper()
	mrtest.CheckGoroutines(t)
	dir := t.TempDir()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := coord.Serve(lis)
	reg := cluster.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		w, err := cluster.NewWorker(addr, cluster.WorkerConfig{
			ID:       fmt.Sprintf("conf-w%d", i),
			Dir:      dir,
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		_ = coord.Close()
		cancel()
		wg.Wait()
	})
	exec, err := cluster.NewExecutor(coord, reg)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func TestClusterExecutorConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster conformance skipped in -short")
	}
	mrtest.Conformance(t, startClusterExecutor(t, 3))
}

// randomJob builds a seeded random word-count job: random line count, random
// vocabulary, random words per line, random reducer count, and occasionally
// no reducer at all (map+shuffle only). Rebuilding from the same rng state
// yields the same job, so each executor sees an identical input.
func randomJob(rng *rand.Rand) *mapreduce.Job {
	fns := mrtest.StandardFuncs()
	vocab := rng.Intn(15) + 1
	lines := make([]string, rng.Intn(30))
	for i := range lines {
		words := make([]byte, 0, 16)
		for w, n := 0, rng.Intn(9); w < n; w++ {
			if w > 0 {
				words = append(words, ' ')
			}
			words = append(words, byte('a'+rng.Intn(vocab)))
		}
		lines[i] = string(words)
	}
	input := make([]mapreduce.KeyValue, len(lines))
	for i, l := range lines {
		input[i] = mapreduce.KeyValue{Key: fmt.Sprintf("%d", i), Value: l}
	}
	job := &mapreduce.Job{
		Name:        "prop-wc",
		Input:       input,
		Map:         fns.WordCountMap,
		Reduce:      fns.SumReduce,
		NumReducers: rng.Intn(7),
	}
	if rng.Intn(5) == 0 {
		job.Reduce = nil
	}
	return job
}

// TestExecutorPropertyRandomJobs is the property half of the conformance
// suite at the engine level: for seeded random jobs, every executor — serial,
// parallel at several widths, and the distributed cluster — must produce
// output identical to the serial reference.
func TestExecutorPropertyRandomJobs(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	clusterExec := startClusterExecutor(t, 3)
	execs := map[string]mapreduce.Executor{
		"parallel-1": mapreduce.ParallelExecutor{Workers: 1},
		"parallel-3": mapreduce.ParallelExecutor{Workers: 3},
		"parallel-8": mapreduce.ParallelExecutor{Workers: 8},
		"cluster":    clusterExec,
	}
	ctx := context.Background()
	for seed := int64(1); seed <= int64(iters); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want, err := mapreduce.SerialExecutor{}.Run(ctx, randomJob(rand.New(rand.NewSource(seed))))
			if err != nil {
				t.Fatalf("serial reference: %v", err)
			}
			for name, exec := range execs {
				name, exec := name, exec
				if testing.Short() && name == "cluster" {
					continue
				}
				got, err := exec.Run(ctx, randomJob(rand.New(rand.NewSource(seed))))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got.Output, want.Output) {
					t.Errorf("%s output differs from serial reference:\ngot  %v\nwant %v", name, got.Output, want.Output)
				}
			}
		})
	}
}

// jobShapes are the four things a job's Reduce and Combine can be; the
// shuffle treats each differently (a map-only job has no shuffle to spill).
var jobShapes = []struct {
	name            string
	reduce, combine bool
}{
	{"map-only", false, false},
	{"combine-only", false, true},
	{"reduce", true, false},
	{"combine+reduce", true, true},
}

// exceedsBudget reports whether some mapper of a ParallelExecutor{Workers,
// MemBudget} emits more than its share of the budget: the executor hands
// each mapper a contiguous ceil(n/workers) chunk and budget/workers bytes.
func exceedsBudget(job *mapreduce.Job, workers int, budget int64) bool {
	share := max(budget/int64(workers), 1)
	chunk := (len(job.Input) + workers - 1) / workers
	for lo := 0; lo < len(job.Input); lo += chunk {
		var charged int64
		for _, in := range job.Input[lo:min(lo+chunk, len(job.Input))] {
			_ = job.Map(in, func(kv mapreduce.KeyValue) { charged += mapreduce.KVCost(kv) })
		}
		if charged > share {
			return true
		}
	}
	return false
}

// TestExecutorPropertyBudgetInvariance sweeps seeded random jobs of every shape across
// memory budgets and worker counts: whatever the budget — none, one byte
// (a flush per pair), one some jobs exceed, one none does — the output and
// the non-spill counters equal the serial reference's, and the executor
// spills exactly when a job with a shuffle exceeds its budget. A
// combine-only job is compared after re-folding: its partial sums depend on
// how the pairs were grouped even in memory (DESIGN.md §14).
func TestExecutorPropertyBudgetInvariance(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	fns := mrtest.StandardFuncs()
	refold := func(kvs []mapreduce.KeyValue) map[string]int {
		sums := make(map[string]int)
		for _, kv := range kvs {
			n, err := strconv.Atoi(kv.Value)
			if err != nil {
				t.Fatalf("non-numeric partial %q: %v", kv.Value, err)
			}
			sums[kv.Key] += n
		}
		return sums
	}
	ctx := context.Background()
	dir := t.TempDir()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, shape := range jobShapes {
			build := func() *mapreduce.Job {
				job := randomJob(rand.New(rand.NewSource(seed)))
				job.Reduce, job.Combine = nil, nil
				if shape.reduce {
					job.Reduce = fns.SumReduce
				}
				if shape.combine {
					job.Combine = fns.SumReduce
				}
				return job
			}
			want, err := mapreduce.SerialExecutor{}.Run(ctx, build())
			if err != nil {
				t.Fatalf("serial reference: %v", err)
			}
			for _, budget := range []int64{0, 1, 4 << 10, 1 << 30} {
				for _, workers := range []int{1, 3, 8} {
					name := fmt.Sprintf("seed=%d %s budget=%d workers=%d", seed, shape.name, budget, workers)
					stats := &spill.Stats{}
					job := build()
					got, err := mapreduce.ParallelExecutor{Workers: workers, MemBudget: budget, SpillDir: dir, Stats: stats}.Run(ctx, job)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if shape.combine && !shape.reduce {
						if !reflect.DeepEqual(refold(got.Output), refold(want.Output)) {
							t.Errorf("%s: partials do not re-fold to the serial totals", name)
						}
						if !slices.IsSortedFunc(got.Output, func(a, b mapreduce.KeyValue) int {
							return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Value, b.Value))
						}) {
							t.Errorf("%s: output not in (key, value) order", name)
						}
					} else if !reflect.DeepEqual(got.Output, want.Output) {
						t.Errorf("%s: output differs from serial reference:\ngot  %v\nwant %v", name, got.Output, want.Output)
					}
					for _, c := range []string{mapreduce.CounterMapIn, mapreduce.CounterMapOut, mapreduce.CounterReduceKeys, mapreduce.CounterReduceOut} {
						if g, w := got.Counters.Get(c), want.Counters.Get(c); g != w {
							t.Errorf("%s: counter %s = %d, serial has %d", name, c, g, w)
						}
					}
					wantSpill := (shape.reduce || shape.combine) && budget > 0 && exceedsBudget(job, workers, budget)
					if sn := stats.Snapshot(); sn.Spilled() != wantSpill || (sn.RunsMerged > 0) != wantSpill {
						t.Errorf("%s: spilled = %v (%+v), want %v", name, sn.Spilled(), sn, wantSpill)
					}
				}
			}
		}
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("spill directory holds %d entries after the sweep (err %v), want none", len(left), err)
	}
}

// matchFingerprint runs the full EV-Matching pipeline over ds with the given
// executor and returns the report fingerprint.
func matchFingerprint(t *testing.T, ds *dataset.Dataset, exec mapreduce.Executor) string {
	t.Helper()
	m, err := core.New(ds, core.Options{Mode: core.ModeParallel, Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.MatchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep.Fingerprint()
}

// TestPipelineFingerprintAcrossExecutors is the property suite at the
// pipeline level: for seeded random worlds — ideal single-tick zones and the
// practical vague-zone setting — the complete matching pipeline must produce
// byte-identical Report fingerprints no matter which executor carries it.
func TestPipelineFingerprintAcrossExecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline property suite skipped in -short")
	}
	seeds := []int64{2, 11, 29}
	for _, seed := range seeds {
		seed := seed
		for _, practical := range []bool{false, true} {
			practical := practical
			name := fmt.Sprintf("seed=%d/practical=%v", seed, practical)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := dataset.DefaultConfig()
				if practical {
					cfg = cfg.Practical()
				}
				cfg.Seed = seed
				cfg.NumPersons = 16 + rng.Intn(17)
				cfg.Density = 4 + float64(rng.Intn(5))
				cfg.NumWindows = 6 + rng.Intn(7)
				ds, err := dataset.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}

				want := matchFingerprint(t, ds, mapreduce.SerialExecutor{})
				if got := matchFingerprint(t, ds, mapreduce.ParallelExecutor{Workers: 3}); got != want {
					t.Errorf("parallel fingerprint differs from serial:\ngot  %q\nwant %q", got, want)
				}
				if got := matchFingerprint(t, ds, startClusterExecutor(t, 3)); got != want {
					t.Errorf("cluster fingerprint differs from serial:\ngot  %q\nwant %q", got, want)
				}
			})
		}
	}
}
