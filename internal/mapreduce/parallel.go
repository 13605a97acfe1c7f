package mapreduce

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"

	"evmatching/internal/spill"
)

// ParallelExecutor runs jobs over a pool of goroutine workers with a
// hash-partitioned shuffle, the in-process equivalent of the paper's Spark
// deployment: one MapTask per worker, one ReducePartition per reducer. With
// MemBudget set, a mapper past its share flushes its buckets to sorted run
// files that the reducers merge back (DESIGN.md §14); the output is
// byte-identical at every budget.
type ParallelExecutor struct {
	// Workers is the mapper/reducer pool size; 0 means GOMAXPROCS.
	Workers int
	// MemBudget caps the bytes of buffered shuffle state across all
	// mappers; 0 disables spilling. Each mapper gets an equal share and
	// flushes its partition buckets as sorted runs when it exceeds it.
	MemBudget int64
	// SpillDir is where run files go; empty means the OS temp directory.
	SpillDir string
	// Stats, when non-nil, accumulates spill counters across jobs.
	Stats *spill.Stats
	// FS overrides the filesystem for tests; nil means the real one.
	FS spill.FS
}

var _ Executor = ParallelExecutor{}

// share is the charge one of workers mappers may buffer before it flushes;
// 0, for no budget, never flushes. The floor of one byte keeps a degenerate
// budget functional (spill on every record) rather than dividing to zero.
func (p ParallelExecutor) share(workers int) int64 {
	if p.MemBudget <= 0 {
		return 0
	}
	return max(p.MemBudget/int64(workers), 1)
}

// Run implements Executor.
func (p ParallelExecutor) Run(ctx context.Context, job *Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = workers
	}
	share := p.share(workers)
	// With neither reducer nor combiner the intermediate pairs are the
	// output, which is held in memory whatever the budget: one bucket per
	// mapper, never flushed.
	if job.Reduce == nil && job.Combine == nil {
		numReducers, share = 1, 0
	}
	fsys := p.FS
	if fsys == nil {
		fsys = spill.OS{}
	}
	counters := NewCounters()

	// The spill directory exists from the first flush to the end of the job.
	var (
		dirOnce sync.Once
		dir     string
		dirErr  error
	)
	defer func() {
		if dir != "" {
			fsys.RemoveAll(dir)
		}
	}()

	// Map phase: each worker maps a contiguous chunk of the input. A worker
	// owns its tails and run paths until the phase joins, so flushes need no
	// locking.
	tails := make([][][]KeyValue, workers) // [worker][reducer] sorted run
	runs := make([][][]string, workers)    // [worker][reducer] run files, in flush order
	mapErr := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(job.Input) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(job.Input) {
			break
		}
		hi := min(lo+chunk, len(job.Input))
		runs[w] = make([][]string, numReducers)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			task := MapTask{
				Map:         job.Map,
				Combine:     job.Combine,
				NumReducers: numReducers,
				Share:       share,
				Count:       counters.Add,
				Flush: func(r int, sorted []KeyValue) error {
					dirOnce.Do(func() { dir, dirErr = fsys.MkdirTemp(p.SpillDir, "evspill-*") })
					if dirErr != nil {
						return fmt.Errorf("create spill dir: %w", dirErr)
					}
					path := filepath.Join(dir, fmt.Sprintf("w%03d-r%03d-%05d.run", w, r, len(runs[w][r])))
					size, err := spill.WriteRun(fsys, path, sorted)
					if err != nil {
						return fmt.Errorf("spill flush partition %d: %w", r, err)
					}
					runs[w][r] = append(runs[w][r], path)
					counters.Add(CounterSpillRuns, 1)
					counters.Add(CounterSpillBytes, size)
					p.Stats.AddRunsWritten(1)
					p.Stats.AddBytesSpilled(size)
					return nil
				},
			}
			tails[w], mapErr[w] = task.Run(ctx, job.Input[lo:hi], lo)
		}(w, lo, hi)
	}
	wg.Wait()
	counters.Add(CounterMapIn, int64(len(job.Input)))
	for w, err := range mapErr {
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q worker %d: %w", job.Name, w, err)
		}
	}

	// Reduce phase: one goroutine per partition merges the partition's runs
	// from every mapper.
	reduceOut := make([][]KeyValue, numReducers)
	reduceErr := make([]error, numReducers)
	for r := 0; r < numReducers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				reduceErr[r] = err
				return
			}
			var inMem [][]KeyValue
			var onDisk []string
			for w := range tails {
				if tails[w] != nil {
					inMem = append(inMem, tails[w][r])
					onDisk = append(onDisk, runs[w][r]...)
				}
			}
			if n := int64(len(onDisk)); n > 0 {
				counters.Add(CounterSpillMerged, n)
				p.Stats.AddRunsMerged(n)
			}
			reduceOut[r], reduceErr[r] = ReducePartition(fsys, inMem, onDisk, job.Reduce, counters.Add)
		}(r)
	}
	wg.Wait()
	for r, err := range reduceErr {
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q reducer %d: %w", job.Name, r, err)
		}
	}
	return &Result{Output: Gather(reduceOut), Counters: counters}, nil
}
