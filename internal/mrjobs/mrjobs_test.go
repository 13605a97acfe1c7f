package mrjobs

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/mapreduce"
	"evmatching/internal/partition"
	"evmatching/internal/scenario"
	"evmatching/internal/vfilter"
)

func escFor(id scenario.ID, eids ...ids.EID) *scenario.EScenario {
	m := make(map[ids.EID]scenario.Attr, len(eids))
	for _, e := range eids {
		m[e] = scenario.AttrInclusive
	}
	return &scenario.EScenario{ID: id, EIDs: m}
}

func TestSplitIterationBasic(t *testing.T) {
	in := SplitInput{
		Sets:      [][]ids.EID{{"a", "b", "c", "d"}},
		Scenarios: []SplitScenario{{1, []ids.EID{"a", "b"}}, {2, []ids.EID{"a", "c"}}},
	}
	res, err := SplitIteration(context.Background(), mapreduce.SerialExecutor{}, in)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]ids.EID{{"a"}, {"b"}, {"c"}, {"d"}}
	if !reflect.DeepEqual(res.Sets, want) {
		t.Errorf("Sets = %v, want %v", res.Sets, want)
	}
	if len(res.UsedScenarios) != 2 {
		t.Errorf("UsedScenarios = %v", res.UsedScenarios)
	}
}

func TestSplitIterationEmpty(t *testing.T) {
	res, err := SplitIteration(context.Background(), mapreduce.SerialExecutor{}, SplitInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 0 {
		t.Errorf("Sets = %v", res.Sets)
	}
}

// TestSplitIterationMatchesTreePartition is the MR-vs-serial equivalence
// property: refining the partition through the MapReduce shuffle must give
// the same sets as sequentially applying every scenario to the split tree.
func TestSplitIterationMatchesTreePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(25)
		targets := make([]ids.EID, n)
		for i := range targets {
			targets[i] = ids.EID(rune('a' + i))
		}
		var scenarios []SplitScenario
		numSc := 1 + rng.Intn(6)
		for s := 0; s < numSc; s++ {
			var members []ids.EID
			for _, e := range targets {
				if rng.Float64() < 0.4 {
					members = append(members, e)
				}
			}
			scenarios = append(scenarios, SplitScenario{scenario.ID(s), members})
		}

		tree, err := partition.New(targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scenarios {
			tree.SplitBy(escFor(s.ID, s.EIDs...))
		}

		for name, exec := range map[string]mapreduce.Executor{
			"serial":   mapreduce.SerialExecutor{},
			"parallel": mapreduce.ParallelExecutor{Workers: 4},
		} {
			res, err := SplitIteration(context.Background(), exec,
				SplitInput{Sets: [][]ids.EID{append([]ids.EID(nil), targets...)}, Scenarios: scenarios})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !reflect.DeepEqual(res.Sets, tree.Sets()) {
				t.Fatalf("trial %d %s: MR sets %v != tree sets %v", trial, name, res.Sets, tree.Sets())
			}
		}
	}
}

func TestSplitIterationRefinesIteratively(t *testing.T) {
	// Feeding the output sets into a second iteration keeps refining.
	sets := [][]ids.EID{{"a", "b", "c", "d", "e", "f"}}
	first, err := SplitIteration(context.Background(), mapreduce.SerialExecutor{},
		SplitInput{Sets: sets, Scenarios: []SplitScenario{{1, []ids.EID{"a", "b", "c"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Sets) != 2 {
		t.Fatalf("first iteration sets = %v", first.Sets)
	}
	second, err := SplitIteration(context.Background(), mapreduce.SerialExecutor{},
		SplitInput{Sets: first.Sets, Scenarios: []SplitScenario{{2, []ids.EID{"a", "d"}}}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]ids.EID{{"a"}, {"b", "c"}, {"d"}, {"e", "f"}}
	if !reflect.DeepEqual(second.Sets, want) {
		t.Errorf("second iteration sets = %v, want %v", second.Sets, want)
	}
}

// vWorld builds a store with detections for V-stage job tests.
type vWorld struct {
	store   *scenario.Store
	gallery *feature.Gallery
	rng     *rand.Rand
}

func newVWorld(t *testing.T, persons int) *vWorld {
	t.Helper()
	layout, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	g, err := feature.NewGallery(rng, persons, 64)
	if err != nil {
		t.Fatal(err)
	}
	return &vWorld{store: scenario.NewStore(layout), gallery: g, rng: rng}
}

func (w *vWorld) add(t *testing.T, window int, persons ...int) scenario.ID {
	t.Helper()
	eids := make([]scenario.EIDAttr, 0, len(persons))
	dets := make([]scenario.Detection, 0, len(persons))
	for _, p := range persons {
		eids = append(eids, scenario.EIDAttr{EID: ids.EID(rune('a' + p)), Attr: scenario.AttrInclusive})
		obs := w.gallery.Observe(p, 0.03, w.rng)
		dets = append(dets, scenario.Detection{
			VID:        ids.VIDLabel(p),
			Patch:      feature.EncodePatch(obs, 1, w.rng),
			TruePerson: p,
		})
	}
	cell := geo.CellID(window % 16)
	v := &scenario.VScenario{Cell: cell, Window: window, Detections: dets}
	id, err := w.store.Add(cell, window, eids, v)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func newTestFilter(t *testing.T, w *vWorld) *vfilter.Filter {
	t.Helper()
	f, err := vfilter.New(w.store, vfilter.Config{
		Extractor:      feature.Extractor{Dim: 64},
		AcceptMajority: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExtractScenariosParallel(t *testing.T) {
	w := newVWorld(t, 6)
	var list []scenario.ID
	for i := 0; i < 10; i++ {
		list = append(list, w.add(t, i, i%6, (i+1)%6))
	}
	f := newTestFilter(t, w)
	if err := ExtractScenarios(context.Background(), mapreduce.ParallelExecutor{Workers: 4}, f, list, 3); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().ScenariosProcessed; got != 10 {
		t.Errorf("ScenariosProcessed = %d, want 10", got)
	}
	// Re-extraction is a no-op thanks to the cache, whatever the batching.
	if err := ExtractScenarios(context.Background(), mapreduce.SerialExecutor{}, f, list, 0); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().ScenariosProcessed; got != 10 {
		t.Errorf("after re-run ScenariosProcessed = %d, want 10", got)
	}
	if err := ExtractScenarios(context.Background(), mapreduce.SerialExecutor{}, f, nil, 0); err != nil {
		t.Errorf("empty extract: %v", err)
	}
}

func TestMatchAssignmentsParallel(t *testing.T) {
	w := newVWorld(t, 5)
	shared := w.add(t, 0, 0, 1, 2, 3, 4)
	assignments := make([]Assignment, 5)
	for p := 0; p < 5; p++ {
		assignments[p] = Assignment{
			EID:  ids.EID(rune('a' + p)),
			List: []scenario.ID{shared, w.add(t, 1+p, p)},
		}
	}
	f := newTestFilter(t, w)
	results, err := MatchAssignments(context.Background(), mapreduce.ParallelExecutor{Workers: 4}, f, assignments, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for p := 0; p < 5; p++ {
		e := ids.EID(rune('a' + p))
		if got := results[e].VID; got != ids.VIDLabel(p) {
			t.Errorf("EID %s matched %v, want %v", e, got, ids.VIDLabel(p))
		}
	}
	empty, err := MatchAssignments(context.Background(), mapreduce.SerialExecutor{}, f, nil, nil, 0)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty assignments: %v, %v", empty, err)
	}
}

func TestMatchAssignmentsRespectsExclusions(t *testing.T) {
	w := newVWorld(t, 2)
	list := []scenario.ID{w.add(t, 0, 0, 1), w.add(t, 1, 0, 1)}
	f := newTestFilter(t, w)
	exclude := f.NewExclusion()
	exclude.Add(ids.VIDLabel(0))
	results, err := MatchAssignments(context.Background(), mapreduce.SerialExecutor{}, f,
		[]Assignment{{EID: "b", List: list}}, exclude, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := results["b"].VID; got != ids.VIDLabel(1) {
		t.Errorf("matched %v, want %v", got, ids.VIDLabel(1))
	}
}

func TestBatchFor(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{100, 4, 7}, // ceil(100/16)
		{3, 4, 1},   // fewer items than task slots
		{0, 4, 1},   // degenerate: still a positive batch
		{10, 0, 3},  // workers clamp to 1: ceil(10/4)
	}
	for _, c := range cases {
		if got := BatchFor(c.n, c.workers); got != c.want {
			t.Errorf("BatchFor(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestBatchInputCoversRange(t *testing.T) {
	for n := 0; n <= 13; n++ {
		for bs := 1; bs <= 5; bs++ {
			input := batchInput(n, bs)
			next := 0
			for _, kv := range input {
				lo, hi, err := parseBatch(kv.Value, n)
				if err != nil {
					t.Fatalf("n=%d bs=%d: %v", n, bs, err)
				}
				if lo != next || hi <= lo {
					t.Fatalf("n=%d bs=%d: batch %q not contiguous from %d", n, bs, kv.Value, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d bs=%d: batches end at %d", n, bs, next)
			}
		}
	}
}

func TestParseBatchRejectsMalformed(t *testing.T) {
	for _, v := range []string{"", "3", "a,b", "1,", ",2", "-1,2", "2,1", "0,9"} {
		if _, _, err := parseBatch(v, 8); err == nil {
			t.Errorf("parseBatch(%q, 8) accepted", v)
		}
	}
}

// TestMatchAssignmentsBatchEquivalence pins that batching is invisible in
// the results: every batch size yields the same per-EID outcome as the
// one-task-per-EID schedule.
func TestMatchAssignmentsBatchEquivalence(t *testing.T) {
	w := newVWorld(t, 6)
	shared := w.add(t, 0, 0, 1, 2, 3, 4, 5)
	assignments := make([]Assignment, 6)
	for p := 0; p < 6; p++ {
		assignments[p] = Assignment{
			EID:  ids.EID(rune('a' + p)),
			List: []scenario.ID{shared, w.add(t, 1+p, p)},
		}
	}
	f := newTestFilter(t, w)
	base, err := MatchAssignments(context.Background(), mapreduce.SerialExecutor{}, f, assignments, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for bs := 2; bs <= len(assignments)+1; bs++ {
		got, err := MatchAssignments(context.Background(), mapreduce.ParallelExecutor{Workers: 4}, f, assignments, nil, bs)
		if err != nil {
			t.Fatalf("batch %d: %v", bs, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("batch %d results diverge: %v vs %v", bs, got, base)
		}
	}
}
