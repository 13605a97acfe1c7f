// Package mrjobs expresses the EV-Matching stages as MapReduce jobs (paper
// §V). The key operation — intersecting an EID partition with the
// E-Scenarios of one timestamp — is implemented with the (key, value)
// shuffle exactly as Algorithm 3 describes: map emits (eid, setID) for every
// set membership, the reduce groups each EID's memberships into a signature,
// and the merge groups EIDs by signature into the refined partition. The V
// stage parallelizes feature extraction and per-EID comparison across
// mappers (§V-C), in contiguous batches so each worker amortizes dispatch
// and working-storage cost across the scenarios it owns.
package mrjobs

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"evmatching/internal/ids"
	"evmatching/internal/mapreduce"
	"evmatching/internal/scenario"
	"evmatching/internal/vfilter"
)

// Set-ID prefixes distinguish partition sets from scenario sets in the
// shuffle (both participate in the intersection).
const (
	partitionSetPrefix = "P"
	scenarioSetPrefix  = "S"
)

// setKey builds a shuffle set ID: the prefix followed by the zero-padded
// decimal id — identical bytes to fmt.Sprintf("%s%06d", prefix, id) without
// the verb parsing.
func setKey(prefix string, id int) string {
	s := strconv.Itoa(id)
	if pad := 6 - len(s); pad > 0 {
		return prefix + "000000"[:pad] + s
	}
	return prefix + s
}

// BatchFor returns the task batch length for n items: ceil(n / (4·workers)),
// giving each worker about four tasks — enough slack for work stealing across
// uneven batches while amortizing per-task dispatch over many items. The
// result is always ≥ 1.
func BatchFor(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	b := (n + 4*workers - 1) / (4 * workers)
	if b < 1 {
		b = 1
	}
	return b
}

// batchInput builds one task record per contiguous batch of n items. The
// value carries the "lo,hi" half-open range into the caller's slice; the key
// is the batch index, zero-padded so task keys sort in batch order.
func batchInput(n, batchSize int) []mapreduce.KeyValue {
	if batchSize < 1 {
		batchSize = 1
	}
	input := make([]mapreduce.KeyValue, 0, (n+batchSize-1)/batchSize)
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		input = append(input, mapreduce.KeyValue{
			Key:   setKey("b", len(input)),
			Value: strconv.Itoa(lo) + "," + strconv.Itoa(hi),
		})
	}
	return input
}

// parseBatch decodes a batchInput value back into its [lo, hi) range,
// validating it against the slice length it indexes.
func parseBatch(v string, n int) (lo, hi int, err error) {
	c := strings.IndexByte(v, ',')
	if c < 0 {
		return 0, 0, fmt.Errorf("bad batch range %q", v)
	}
	lo, err = strconv.Atoi(v[:c])
	if err != nil {
		return 0, 0, fmt.Errorf("bad batch range %q: %w", v, err)
	}
	hi, err = strconv.Atoi(v[c+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("bad batch range %q: %w", v, err)
	}
	if lo < 0 || hi < lo || hi > n {
		return 0, 0, fmt.Errorf("batch range %q out of [0,%d]", v, n)
	}
	return lo, hi, nil
}

// SplitInput is one Algorithm-3 iteration's input: the current partition and
// the E-Scenarios selected at one timestamp, pre-filtered to the target EIDs
// (the preprocess step).
type SplitInput struct {
	// Sets holds the current partition's sets (inclusive members only).
	Sets [][]ids.EID
	// Scenarios holds the EID sets of the selected E-Scenarios.
	Scenarios []*scenario.EScenario
}

// SplitResult is the refined partition after one iteration.
type SplitResult struct {
	// Sets is the new partition, each set sorted, ordered by smallest EID.
	Sets [][]ids.EID
	// UsedScenarios lists the scenario IDs whose sets appeared in at least
	// one signature group boundary (candidates for recording).
	UsedScenarios []scenario.ID
}

// SplitIteration refines the partition by every provided scenario at once,
// using two chained MapReduce jobs: membership shuffle then signature merge.
// The result equals sequentially intersecting each set with each scenario.
func SplitIteration(ctx context.Context, exec mapreduce.Executor, in SplitInput) (*SplitResult, error) {
	if len(in.Sets) == 0 {
		return &SplitResult{}, nil
	}
	targets := make(map[ids.EID]bool)
	input := make([]mapreduce.KeyValue, 0, len(in.Sets)+len(in.Scenarios))
	var strs []string // member buffer reused across records
	for i, set := range in.Sets {
		strs = strs[:0]
		for _, e := range set {
			strs = append(strs, string(e))
			targets[e] = true
		}
		input = append(input, mapreduce.KeyValue{
			Key:   setKey(partitionSetPrefix, i),
			Value: strings.Join(strs, ","),
		})
	}
	for _, s := range in.Scenarios {
		strs = strs[:0]
		for _, e := range s.SortedEIDs() {
			if s.Inclusive(e) && targets[e] {
				strs = append(strs, string(e))
			}
		}
		if len(strs) == 0 {
			continue
		}
		input = append(input, mapreduce.KeyValue{
			Key:   setKey(scenarioSetPrefix, int(s.ID)),
			Value: strings.Join(strs, ","),
		})
	}

	// Job 1 — membership shuffle (Algorithm 3 Map + Reduce): emit
	// (eid, setID) for every membership, then fold each EID's set IDs into
	// a sorted signature.
	shuffle := &mapreduce.Job{
		Name:   "ev.split.shuffle",
		Input:  input,
		Map:    MembershipMap,
		Reduce: SignatureReduce,
	}
	// Job 2 — merge (Algorithm 3 Merge): group EIDs by identical signature;
	// each group is one element of the refined partition.
	merge := &mapreduce.Job{
		Name:   "ev.split.merge",
		Map:    identityMap,
		Reduce: MergeReduce,
	}
	res, err := mapreduce.Chain(ctx, exec, []*mapreduce.Job{shuffle, merge}, nil)
	if err != nil {
		return nil, fmt.Errorf("mrjobs: split iteration: %w", err)
	}

	out := &SplitResult{}
	usedSc := make(map[scenario.ID]bool)
	for _, kv := range res.Output {
		var set []ids.EID
		for _, e := range strings.Split(kv.Value, ",") {
			if e != "" {
				set = append(set, ids.EID(e))
			}
		}
		if len(set) == 0 {
			continue
		}
		out.Sets = append(out.Sets, set)
		for _, sid := range strings.Split(kv.Key, "|") {
			if strings.HasPrefix(sid, scenarioSetPrefix) {
				if id, err := strconv.Atoi(sid[len(scenarioSetPrefix):]); err == nil {
					usedSc[scenario.ID(id)] = true
				}
			}
		}
	}
	slices.SortFunc(out.Sets, func(a, b []ids.EID) int {
		if a[0] < b[0] {
			return -1
		}
		if a[0] > b[0] {
			return 1
		}
		return 0
	})
	for id := range usedSc {
		out.UsedScenarios = append(out.UsedScenarios, id)
	}
	slices.Sort(out.UsedScenarios)
	return out, nil
}

// MembershipMap emits (eid, setID) for every EID listed in the set record
// (Algorithm 3 Map). The member list is walked in place — no intermediate
// split slice — since this map runs once per set per iteration.
func MembershipMap(in mapreduce.KeyValue, emit mapreduce.Emitter) error {
	v := in.Value
	for len(v) > 0 {
		var e string
		if c := strings.IndexByte(v, ','); c >= 0 {
			e, v = v[:c], v[c+1:]
		} else {
			e, v = v, ""
		}
		if e != "" {
			emit(mapreduce.KeyValue{Key: e, Value: in.Key})
		}
	}
	return nil
}

// SignatureReduce folds one EID's set memberships into a canonical signature
// key (Algorithm 3 Reduce: emit (eidsetidlist, eid)). Values arrive sorted —
// the Executor contract — which is exactly the canonical signature order, so
// the memberships join as delivered.
func SignatureReduce(key string, values []string, emit mapreduce.Emitter) error {
	emit(mapreduce.KeyValue{Key: strings.Join(values, "|"), Value: key})
	return nil
}

// MergeReduce groups the EIDs sharing one signature into a partition element
// (Algorithm 3 Merge: emit (eidsetidlist, eidlist)). Values arrive sorted per
// the Executor contract, so the EID list joins as delivered.
func MergeReduce(key string, values []string, emit mapreduce.Emitter) error {
	emit(mapreduce.KeyValue{Key: key, Value: strings.Join(values, ",")})
	return nil
}

func identityMap(in mapreduce.KeyValue, emit mapreduce.Emitter) error {
	emit(in)
	return nil
}

// ExtractScenarios runs the parallel feature-extraction stage (§V-C): each
// mapper processes one contiguous batch of V-Scenarios through the filter,
// which caches the features for the comparison stage. The visual operations
// have no data dependency, so batches parallelize freely; within a batch the
// filter reuses one extraction buffer across every scenario, amortizing the
// working-storage cost the way the paper assumes each worker amortizes
// video-processing setup over the scenarios it owns. batchSize ≤ 0 means one
// scenario per task.
func ExtractScenarios(ctx context.Context, exec mapreduce.Executor, f *vfilter.Filter, scenarios []scenario.ID, batchSize int) error {
	if len(scenarios) == 0 {
		return nil
	}
	job := &mapreduce.Job{
		Name:  "ev.vstage.extract",
		Input: batchInput(len(scenarios), batchSize),
		Map: func(in mapreduce.KeyValue, emit mapreduce.Emitter) error {
			lo, hi, err := parseBatch(in.Value, len(scenarios))
			if err != nil {
				return fmt.Errorf("extract task %q: %w", in.Key, err)
			}
			if err := f.ExtractBatch(scenarios[lo:hi]); err != nil {
				return err
			}
			emit(mapreduce.KeyValue{Key: in.Key, Value: "ok"})
			return nil
		},
	}
	if _, err := exec.Run(ctx, job); err != nil {
		return fmt.Errorf("mrjobs: extract: %w", err)
	}
	return nil
}

// Assignment is one EID's V-stage work item: the scenario list selected by
// set splitting.
type Assignment struct {
	EID  ids.EID
	List []scenario.ID
}

// MatchAssignments runs the parallel comparison stage: the V-Scenarios of
// one EID's list are conveyed to the same mapper, and a mapper owns a
// contiguous batch of EIDs so several comparisons amortize one task
// dispatch. The one exclusion set (already-matched VIDs, nil for none) is
// shared read-only by every mapper; the caller must not Add to it while any
// map attempt may still run. Results are keyed by EID. batchSize ≤ 0 means
// one EID per task.
func MatchAssignments(ctx context.Context, exec mapreduce.Executor, f *vfilter.Filter, assignments []Assignment, exclude *vfilter.Exclusion, batchSize int) (map[ids.EID]vfilter.Result, error) {
	if len(assignments) == 0 {
		return map[ids.EID]vfilter.Result{}, nil
	}
	// Results travel through a mutex-guarded side map rather than a channel:
	// a fault-tolerant cluster may re-execute a map task whose lease expired
	// while the first attempt still runs, and that straggler can outlive the
	// job. Map writes are idempotent (Match is deterministic per
	// assignment), and the guarded copy below means a late write can never
	// panic or race — it lands in the abandoned map.
	var resMu sync.Mutex
	results := make(map[ids.EID]vfilter.Result, len(assignments))
	job := &mapreduce.Job{
		Name:  "ev.vstage.compare",
		Input: batchInput(len(assignments), batchSize),
		Map: func(in mapreduce.KeyValue, emit mapreduce.Emitter) error {
			lo, hi, err := parseBatch(in.Value, len(assignments))
			if err != nil {
				return fmt.Errorf("compare task %q: %w", in.Key, err)
			}
			batch := make([]vfilter.Result, 0, hi-lo)
			for _, a := range assignments[lo:hi] {
				res, err := f.Match(a.EID, a.List, exclude)
				if err != nil {
					return err
				}
				batch = append(batch, res)
			}
			resMu.Lock()
			for _, res := range batch {
				results[res.EID] = res
			}
			resMu.Unlock()
			for _, res := range batch {
				emit(mapreduce.KeyValue{Key: string(res.EID), Value: string(res.VID)})
			}
			return nil
		},
	}
	if _, err := exec.Run(ctx, job); err != nil {
		return nil, fmt.Errorf("mrjobs: compare: %w", err)
	}
	resMu.Lock()
	defer resMu.Unlock()
	out := make(map[ids.EID]vfilter.Result, len(results))
	for _, a := range assignments {
		if res, ok := results[a.EID]; ok {
			out[a.EID] = res
		}
	}
	return out, nil
}
