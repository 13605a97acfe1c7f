package mapreduce

import (
	"context"
	"fmt"
)

// SerialExecutor runs jobs single-threaded; it defines the reference
// semantics the parallel and distributed executors must reproduce.
type SerialExecutor struct{}

var _ Executor = SerialExecutor{}

// Run implements Executor.
func (SerialExecutor) Run(ctx context.Context, job *Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	counters := NewCounters()

	var intermediate []KeyValue
	emit := func(kv KeyValue) { intermediate = append(intermediate, kv) }
	for i, in := range job.Input {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
		}
		if err := job.Map(in, emit); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q map record %d: %w", job.Name, i, err)
		}
	}
	counters.Add(CounterMapIn, int64(len(job.Input)))
	counters.Add(CounterMapOut, int64(len(intermediate)))

	sortKVs(intermediate)
	if job.Reduce == nil {
		return &Result{Output: intermediate, Counters: counters}, nil
	}
	out, err := reduceGroups(groupByKey(intermediate), job.Reduce, counters.Add)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	sortKVs(out)
	return &Result{Output: out, Counters: counters}, nil
}

// Chain runs jobs sequentially on exec, feeding each job's output into the
// next job's input. The stage function, if non-nil, is called between jobs
// with the stage index and output and may transform it (e.g. re-key). It
// returns the final result.
func Chain(ctx context.Context, exec Executor, jobs []*Job, stage func(i int, out []KeyValue) []KeyValue) (*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrBadJob)
	}
	var res *Result
	for i, job := range jobs {
		if i > 0 {
			in := res.Output
			if stage != nil {
				in = stage(i-1, in)
			}
			job.Input = in
		}
		var err error
		res, err = exec.Run(ctx, job)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
