package mapreduce

import (
	"context"
	"fmt"

	"evmatching/internal/spill"
)

// This file is the MapReduce task, written once. A (map task, reducer)
// bucket is a sorted run of (key, value) records wherever it lives — a
// slice a goroutine mapper hands its reducers, a spilled file of a budgeted
// shuffle, an intermediate file in a cluster's shared directory — so
// ParallelExecutor and cluster.Worker run the same map kernel and the same
// reduce kernel and differ only in where the runs go. SerialExecutor is the
// oracle they are compared against and is deliberately not built on them.
//
// The (key, value) order is total up to exact duplicates, so any bucketing
// followed by a sort or a merge of sorted runs yields the same sequence:
// how many reducers, map tasks or flushes there were never shows in the
// output.

// kvOverhead approximates per-record bookkeeping bytes beyond the raw key
// and value payloads (string headers, slice growth slack).
const kvOverhead = 32

// kvCost is the byte charge for buffering one pair in the shuffle.
func kvCost(kv KeyValue) int64 { return int64(len(kv.Key)+len(kv.Value)) + kvOverhead }

// MapTask is the map side of one task: map, partition, combine, sort.
type MapTask struct {
	Map MapFunc
	// Combine optionally pre-folds each bucket before it is sorted.
	Combine ReduceFunc
	// NumReducers is R, the number of buckets.
	NumReducers int
	// Share is the charge of buffered pairs (kvCost each) past which the
	// buckets are flushed mid-task; 0 keeps them all to the end.
	Share int64
	// Flush receives each non-empty bucket of a mid-task flush as a sorted
	// run; the task drops the bucket once Flush returns. Unused when Share
	// is 0.
	Flush func(r int, sorted []KeyValue) error
	// Count receives the task's map.out and combine.out counters.
	Count func(name string, delta int64)
}

// Run maps input (whose first record is number base of the job's input, for
// error messages) and returns the R buckets still in memory when the task
// ends, each a sorted run. Splitting one task's combine across flushes is
// the same as splitting it across tasks, which the combiner contract
// already requires to be harmless.
func (t *MapTask) Run(ctx context.Context, input []KeyValue, base int) ([][]KeyValue, error) {
	buckets := make([][]KeyValue, t.NumReducers)
	var charged, emitted int64
	var flushErr error // sticky: emit becomes a no-op after a failed flush
	emit := func(kv KeyValue) {
		if flushErr != nil {
			return
		}
		r := Partition(kv.Key, t.NumReducers)
		buckets[r] = append(buckets[r], kv)
		emitted++
		if charged += kvCost(kv); t.Share > 0 && charged > t.Share {
			flushErr = t.flush(buckets)
			charged = 0
		}
	}
	for i, in := range input {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := t.Map(in, emit); err != nil {
			return nil, fmt.Errorf("map record %d: %w", base+i, err)
		}
		if flushErr != nil {
			return nil, flushErr
		}
	}
	t.Count(CounterMapOut, emitted)
	var combined int64
	for r, b := range buckets {
		run, err := t.sortedRun(b)
		if err != nil {
			return nil, err
		}
		buckets[r] = run
		combined += int64(len(run))
	}
	if t.Combine != nil {
		t.Count(CounterCombineOut, combined)
	}
	return buckets, nil
}

// flush hands every non-empty bucket to the sink as a sorted run and drops
// it.
func (t *MapTask) flush(buckets [][]KeyValue) error {
	for r, b := range buckets {
		if len(b) == 0 {
			continue
		}
		run, err := t.sortedRun(b)
		if err != nil {
			return err
		}
		if err := t.Flush(r, run); err != nil {
			return err
		}
		buckets[r] = nil
	}
	return nil
}

// sortedRun turns a bucket into a sorted run: folded by the combiner, if
// any, then ordered by (key, value) — a combiner may emit values out of
// order within a key, and a run is fully ordered.
func (t *MapTask) sortedRun(b []KeyValue) ([]KeyValue, error) {
	if t.Combine != nil {
		sortKVs(b)
		var out []KeyValue
		emit := func(kv KeyValue) { out = append(out, kv) }
		for _, g := range groupByKey(b) {
			if err := t.Combine(g.key, g.values, emit); err != nil {
				return nil, fmt.Errorf("combine key %q: %w", g.key, err)
			}
		}
		b = out
	}
	sortKVs(b)
	return b, nil
}

// Gather concatenates sorted runs, or any slices of pairs, into one slice
// in the canonical (key, value) order.
func Gather(parts [][]KeyValue) []KeyValue {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	all := make([]KeyValue, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	sortKVs(all)
	return all
}

// ReducePartition is the reduce side of one task: it merges one partition's
// sorted runs — tails held in memory and run files at runPaths, every one of
// which must open — groups the stream by key and folds each group with
// reduce, reporting reduce.keys and reduce.out through count. A nil reduce
// returns the merged pairs themselves. Without run files this is a sort of
// the concatenated tails and a slab group-by; with them, a streaming k-way
// merge that holds one key's values at a time.
func ReducePartition(fsys spill.FS, tails [][]KeyValue, runPaths []string, reduce ReduceFunc, count func(name string, delta int64)) ([]KeyValue, error) {
	tail := Gather(tails)
	if len(runPaths) == 0 {
		if reduce == nil {
			return tail, nil
		}
		return reduceGroups(groupByKey(tail), reduce, count)
	}

	sources := make([]spill.Source, 0, len(runPaths)+1)
	for _, path := range runPaths {
		rr, err := spill.OpenRun(fsys, path)
		if err != nil {
			return nil, err
		}
		defer rr.Close()
		sources = append(sources, rr)
	}
	sources = append(sources, spill.NewSliceSource(tail))

	var out []KeyValue
	if reduce == nil {
		err := spill.MergeRuns(sources, func(kv KeyValue) error {
			out = append(out, kv)
			return nil
		})
		return out, err
	}

	// Values accumulate per key and go to the reducer on each key change.
	// Every group gets a fresh values slice — reducers may retain what they
	// are handed — so a non-nil vals is also the "group pending" flag.
	emit := func(kv KeyValue) { out = append(out, kv) }
	var key string
	var vals []string
	var groups int64
	reduceGroup := func() error {
		if vals == nil {
			return nil
		}
		groups++
		err := reduce(key, vals, emit)
		vals = nil
		if err != nil {
			return fmt.Errorf("reduce key %q: %w", key, err)
		}
		return nil
	}
	err := spill.MergeRuns(sources, func(kv KeyValue) error {
		if kv.Key != key {
			if err := reduceGroup(); err != nil {
				return err
			}
			key = kv.Key
		}
		vals = append(vals, kv.Value)
		return nil
	})
	if err == nil {
		err = reduceGroup()
	}
	if err != nil {
		return nil, err
	}
	count(CounterReduceKeys, groups)
	count(CounterReduceOut, int64(len(out)))
	return out, nil
}
