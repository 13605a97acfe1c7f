package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"evmatching/internal/mapreduce"
)

// Executor adapts a Coordinator to the mapreduce.Executor interface, so any
// code written against the engine — including the EV-Matching core via
// Options.Executor — runs on the distributed runtime unchanged.
//
// Jobs carry Go closures, which cannot travel over RPC; Executor registers
// each job's functions in the shared Registry under generated names before
// submitting the spec. Workers therefore must share this process (the
// in-process-workers-over-localhost deployment used in tests and the
// evmatching integration) or register the same functions themselves.
type Executor struct {
	coord    *Coordinator
	registry *Registry

	// Fallback, when non-nil, re-runs a job in-process after the cluster
	// fails it with ErrNoWorkers — graceful degradation to the serial path
	// when the worker pool collapses. Other job errors still surface.
	Fallback mapreduce.Executor

	mu        sync.Mutex
	seq       int
	fallbacks int64
}

var _ mapreduce.Executor = (*Executor)(nil)

// NewExecutor wraps a coordinator and the registry its workers resolve
// function names against.
func NewExecutor(coord *Coordinator, registry *Registry) (*Executor, error) {
	if coord == nil || registry == nil {
		return nil, fmt.Errorf("cluster: executor needs a coordinator and a registry")
	}
	return &Executor{coord: coord, registry: registry}, nil
}

// Run implements mapreduce.Executor by registering the job's functions and
// submitting it as a distributed job.
func (e *Executor) Run(ctx context.Context, job *mapreduce.Job) (*mapreduce.Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.seq++
	prefix := fmt.Sprintf("exec.%d.%s", e.seq, job.Name)
	e.mu.Unlock()

	spec := JobSpec{
		Name:        job.Name,
		MapName:     prefix + ".map",
		NumReducers: job.NumReducers,
	}
	// The closures pin the job's partition sets or filter: drop them with
	// the job. A straggler that then fails to resolve a name reports an
	// error for a finished job id, which ReportTask absorbs as stale.
	defer e.registry.unregister(prefix+".map", prefix+".reduce", prefix+".combine")
	if err := e.registry.RegisterMap(spec.MapName, job.Map); err != nil {
		return nil, err
	}
	if job.Reduce != nil {
		spec.ReduceName = prefix + ".reduce"
		if err := e.registry.RegisterReduce(spec.ReduceName, job.Reduce); err != nil {
			return nil, err
		}
	}
	if job.Combine != nil {
		spec.CombineName = prefix + ".combine"
		if err := e.registry.RegisterReduce(spec.CombineName, job.Combine); err != nil {
			return nil, err
		}
	}
	res, err := e.coord.RunJob(ctx, spec, job.Input)
	if err != nil && e.Fallback != nil && errors.Is(err, ErrNoWorkers) {
		e.mu.Lock()
		e.fallbacks++
		e.mu.Unlock()
		return e.Fallback.Run(ctx, job)
	}
	return res, err
}

// Stats reports the underlying coordinator's fault-recovery totals.
func (e *Executor) Stats() Stats { return e.coord.Stats() }

// Fallbacks reports how many jobs were re-run on the Fallback executor after
// the worker pool collapsed.
func (e *Executor) Fallbacks() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fallbacks
}
