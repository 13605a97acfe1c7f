// Package mapreduce is a from-scratch MapReduce engine standing in for the
// Apache Spark / Hadoop stack of the paper's evaluation. It provides the
// programming model of §V-A — split, map, shuffle, reduce over (key, value)
// pairs — with a serial executor (the reference semantics), a parallel
// executor (goroutine workers with hash-partitioned shuffle and optional
// combiners), and, in package cluster, a distributed executor over net/rpc.
// All executors produce identical, deterministically sorted output for the
// same job, a property the tests pin down.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"evmatching/internal/spill"
)

// KeyValue is the unit of data flowing through a job. It is the record of
// a spill run file, so a shuffle bucket goes to disk and back uncopied.
type KeyValue = spill.Record

// Emitter receives pairs produced by map and reduce functions.
type Emitter func(kv KeyValue)

// MapFunc transforms one input pair into any number of intermediate pairs.
type MapFunc func(in KeyValue, emit Emitter) error

// ReduceFunc folds all values observed for one key into output pairs.
// Values arrive sorted, so reducers are deterministic.
type ReduceFunc func(key string, values []string, emit Emitter) error

// ErrBadJob reports a malformed job.
var ErrBadJob = errors.New("mapreduce: invalid job")

// Job describes one MapReduce computation.
type Job struct {
	// Name labels the job in errors and counters.
	Name string
	// Input is the full input split across mappers.
	Input []KeyValue
	// Map and Reduce define the computation. Reduce may be nil, in which
	// case the shuffled intermediate pairs are returned directly (a
	// map-only job).
	Map    MapFunc
	Reduce ReduceFunc
	// Combine optionally pre-folds map output per partition before the
	// shuffle, cutting shuffle volume for associative reductions.
	Combine ReduceFunc
	// NumReducers partitions the key space; 0 means one partition per
	// worker.
	NumReducers int
}

// Validate reports whether the job can run.
func (j *Job) Validate() error {
	if j == nil {
		return fmt.Errorf("%w: nil job", ErrBadJob)
	}
	if j.Map == nil {
		return fmt.Errorf("%w: job %q has no map function", ErrBadJob, j.Name)
	}
	if j.NumReducers < 0 {
		return fmt.Errorf("%w: job %q NumReducers=%d", ErrBadJob, j.Name, j.NumReducers)
	}
	return nil
}

// Counters accumulate named statistics during a run. Safe for concurrent
// use.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters creates an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[name] += delta
}

// Get returns the value of the named counter.
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Result is the output of one job run.
type Result struct {
	// Output holds the final pairs sorted by key then value.
	Output []KeyValue
	// Counters holds run statistics: pairs mapped, shuffled, reduced.
	Counters *Counters
}

// Executor runs jobs. Implementations must produce identical Output for
// identical jobs.
type Executor interface {
	Run(ctx context.Context, job *Job) (*Result, error)
}

// Standard counter names shared by executors.
const (
	CounterMapIn      = "map.in"
	CounterMapOut     = "map.out"
	CounterCombineOut = "combine.out"
	CounterReduceKeys = "reduce.keys"
	CounterReduceOut  = "reduce.out"
	// Spill counters (set only by a shuffle that went past its budget).
	CounterSpillRuns   = "spill.runs.written"
	CounterSpillBytes  = "spill.bytes"
	CounterSpillMerged = "spill.runs.merged"
)

// sortKVs orders pairs by key then value, the canonical output order. The
// (key, value) order is total up to exact duplicates, so any correct sort
// yields the same sequence.
func sortKVs(kvs []KeyValue) {
	slices.SortFunc(kvs, func(a, b KeyValue) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return strings.Compare(a.Value, b.Value)
	})
}

// groupByKey groups sorted pairs into (key, values) runs, preserving order.
// All value slices are windows into one shared slab, so grouping costs two
// allocations however many keys there are.
func groupByKey(kvs []KeyValue) []group {
	if len(kvs) == 0 {
		return nil
	}
	vals := make([]string, len(kvs))
	numGroups := 1
	for i, kv := range kvs {
		vals[i] = kv.Value
		if i > 0 && kv.Key != kvs[i-1].Key {
			numGroups++
		}
	}
	out := make([]group, 0, numGroups)
	for i := 0; i < len(kvs); {
		j := i
		for j < len(kvs) && kvs[j].Key == kvs[i].Key {
			j++
		}
		out = append(out, group{key: kvs[i].Key, values: vals[i:j:j]})
		i = j
	}
	return out
}

type group struct {
	key    string
	values []string
}

// reduceGroups applies fn to each group and reports the reduce counters
// through count.
func reduceGroups(groups []group, fn ReduceFunc, count func(name string, delta int64)) ([]KeyValue, error) {
	var out []KeyValue
	emit := func(kv KeyValue) { out = append(out, kv) }
	for _, g := range groups {
		if err := fn(g.key, g.values, emit); err != nil {
			return nil, fmt.Errorf("reduce key %q: %w", g.key, err)
		}
	}
	count(CounterReduceKeys, int64(len(groups)))
	count(CounterReduceOut, int64(len(out)))
	return out, nil
}

// fnv32 hashes a key for shuffle partitioning (FNV-1a).
func fnv32(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// Partition returns the reduce partition for a key.
func Partition(key string, numReducers int) int {
	if numReducers <= 1 {
		return 0
	}
	return int(fnv32(key) % uint32(numReducers))
}
