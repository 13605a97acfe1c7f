package vfilter

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// memoWorld is a random store built so the memo engages — every scenario
// holds at least memoMinWork/memoDim rows — with targets whose lists share
// scenarios and candidates, and the hostile cases the representative key
// must survive: a VID detected twice in one scenario, a list naming one
// scenario twice, and a scenario whose extraction fails partway.
type memoWorld struct {
	store   *scenario.Store
	targets []ids.EID
	lists   [][]scenario.ID
	vids    []ids.VID
}

const memoDim = 64

func buildMemoWorld(seed int64) (*memoWorld, error) {
	rng := rand.New(rand.NewSource(seed))
	layout, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 4, 4)
	if err != nil {
		return nil, err
	}
	persons := 10 + rng.Intn(15)
	gallery, err := feature.NewGallery(rng, persons, memoDim)
	if err != nil {
		return nil, err
	}
	w := &memoWorld{store: scenario.NewStore(layout)}
	for p := range persons {
		w.vids = append(w.vids, ids.VIDLabel(p))
	}
	minRows := memoMinWork / memoDim
	var good []scenario.ID
	for win := range 3 + rng.Intn(6) {
		var dets []scenario.Detection
		for p := 0; p < persons || len(dets) < minRows; p++ {
			q := p % persons
			if p < persons && rng.Float64() < 0.3 {
				continue
			}
			det := scenario.Detection{VID: w.vids[q], Patch: feature.EncodePatch(gallery.Observe(q, 0.1, rng), 1, rng)}
			dets = append(dets, det)
			if rng.Float64() < 0.1 { // the same VID twice in one scenario
				det.Patch = feature.EncodePatch(gallery.Observe(q, 0.1, rng), 1, rng)
				dets = append(dets, det)
			}
		}
		id, err := w.add(win, dets)
		if err != nil {
			return nil, err
		}
		good = append(good, id)
	}
	bad := scenario.NoID
	if rng.Float64() < 0.5 {
		dets := []scenario.Detection{
			{VID: w.vids[0], Patch: feature.EncodePatch(gallery.Observe(0, 0.1, rng), 1, rng)},
			{VID: w.vids[1], Patch: feature.Patch{W: 2, H: 2, Pix: []byte{1}}},
			{VID: w.vids[2], Patch: feature.EncodePatch(gallery.Observe(2, 0.1, rng), 1, rng)},
		}
		if bad, err = w.add(len(good), dets); err != nil {
			return nil, err
		}
	}
	// Lists drawn from a few shared prefixes, so targets share candidates
	// whose sightings — and so representatives — coincide.
	var prefixes [][]scenario.ID
	for range 2 + rng.Intn(2) {
		perm := rng.Perm(len(good))
		var prefix []scenario.ID
		for _, i := range perm[:1+rng.Intn(len(good))] {
			prefix = append(prefix, good[i])
		}
		prefixes = append(prefixes, prefix)
	}
	for t := range 6 + rng.Intn(6) {
		list := append([]scenario.ID(nil), prefixes[rng.Intn(len(prefixes))]...)
		if rng.Float64() < 0.5 {
			list = append(list, good[rng.Intn(len(good))])
		}
		if rng.Float64() < 0.3 { // one scenario named twice
			list = append(list, list[rng.Intn(len(list))])
		}
		if bad != scenario.NoID && rng.Float64() < 0.3 {
			i := rng.Intn(len(list) + 1)
			list = append(list[:i], append([]scenario.ID{bad}, list[i:]...)...)
		}
		w.targets = append(w.targets, ids.EID(fmt.Sprintf("t%d", t)))
		w.lists = append(w.lists, list)
	}
	return w, nil
}

func (w *memoWorld) add(window int, dets []scenario.Detection) (scenario.ID, error) {
	cell := geo.CellID(window % 16)
	return w.store.Add(cell, window, nil, &scenario.VScenario{Cell: cell, Window: window, Detections: dets})
}

func (w *memoWorld) filter() (*Filter, error) {
	return New(w.store, Config{Extractor: feature.Extractor{Dim: memoDim}, AcceptMajority: 0.5})
}

// randomExclusion rules each of the world's VIDs out with probability p.
func (w *memoWorld) randomExclusion(f *Filter, rng *rand.Rand, p float64) *Exclusion {
	x := f.NewExclusion()
	for _, vid := range w.vids {
		if rng.Float64() < p {
			x.Add(vid)
		}
	}
	return x
}

// sameScored reports whether two Scoreds are identical, probabilities bit
// for bit.
func sameScored(a, b *Scored) bool {
	if !reflect.DeepEqual(a, b) || len(a.prob) != len(b.prob) {
		return false
	}
	for i := range a.prob {
		if math.Float64bits(a.prob[i]) != math.Float64bits(b.prob[i]) {
			return false
		}
	}
	return true
}

// sameResult reports whether two Results are identical, floats bit for bit.
func sameResult(a, b Result) bool {
	return reflect.DeepEqual(a, b) &&
		math.Float64bits(a.Probability) == math.Float64bits(b.Probability) &&
		math.Float64bits(a.MajorityFrac) == math.Float64bits(b.MajorityFrac) &&
		math.Float64bits(a.Margin) == math.Float64bits(b.Margin)
}

// TestScoreMemoInvisible: a filter whose memos are warm — it has scored
// every target already, in another order, under other exclusions, from
// GOMAXPROCS goroutines at once, and some of its entries were dropped and
// reloaded — returns for every target exactly the Scored and the Result a
// fresh filter returns, floats bit for bit: under a random exclusion, under
// a larger one that rules out every pruned candidate (Decide's re-score),
// and with the same error when the list holds a scenario whose extraction
// fails. The memo must also have served pairs, or the check says nothing.
func TestScoreMemoInvisible(t *testing.T) {
	var served, scored int
	check := func(seed int64) bool {
		w, err := buildMemoWorld(seed)
		if err != nil {
			t.Log(err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		warm, err := w.filter()
		if err != nil {
			t.Log(err)
			return false
		}
		var mu sync.Mutex
		spilled := map[scenario.ID]*feature.Matrix{}
		warm.SetMatrixSource(func(id scenario.ID) (*feature.Matrix, error) {
			mu.Lock()
			defer mu.Unlock()
			return spilled[id], nil
		})
		dropSome := func() {
			for id := range scenario.ID(w.store.Len()) {
				if rng.Float64() < 0.3 {
					if m, ok := warm.Drop(id); ok {
						mu.Lock()
						spilled[id] = m
						mu.Unlock()
					}
				}
			}
		}

		// Warm up: every target, shuffled, each under its own exclusion,
		// on GOMAXPROCS goroutines; then drop some entries.
		order := rng.Perm(len(w.targets))
		excl := make([]*Exclusion, len(order))
		for k := range excl {
			excl[k] = w.randomExclusion(warm, rng, 0.2)
		}
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := g; k < len(order); k += workers {
					i := order[k]
					warm.Match(w.targets[i], w.lists[i], excl[k]) // errors are compared below
				}
			}()
		}
		wg.Wait()
		dropSome()

		before := warm.Memo().KernelPairs
		fresh := 0
		for i := range w.targets {
			if i == len(w.targets)/2 {
				dropSome()
			}
			cold, err := w.filter()
			if err != nil {
				t.Log(err)
				return false
			}
			if msg := sameAsFresh(warm, cold, w.targets[i], w.lists[i], w.randomExclusion(warm, rng, 0.2)); msg != "" {
				t.Logf("seed %d target %d: %s", seed, i, msg)
				return false
			}
			fresh += cold.Memo().KernelPairs
		}
		served += fresh - (warm.Memo().KernelPairs - before)
		scored += fresh
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if served <= 0 {
		t.Fatalf("the warm memos served none of the %d pairs fresh filters scored: the check compared nothing", scored)
	}
	t.Logf("the warm memos served %d of the %d pairs fresh filters scored", served, scored)
}

// sameAsFresh scores and decides e over list on the warm filter and on the
// fresh one cold, under x and then with every candidate ruled out, and
// describes the first difference; "" when there is none.
func sameAsFresh(warm, cold *Filter, e ids.EID, list []scenario.ID, x *Exclusion) string {
	xc := &Exclusion{f: cold, bits: x.bits.Clone()}
	got, errW := warm.Score(e, list, x)
	want, errC := cold.Score(e, list, xc)
	if errW != nil || errC != nil {
		if errW == nil || errC == nil || errW.Error() != errC.Error() || !errors.Is(errW, feature.ErrBadPatch) {
			return fmt.Sprintf("Score errors %v, fresh %v", errW, errC)
		}
		return ""
	}
	if !sameScored(got, want) {
		return "Scored differs from a fresh filter's"
	}
	resW, errW := warm.Decide(got, x)
	resC, errC := cold.Decide(want, xc)
	if errW != nil || errC != nil || !sameResult(resW, resC) {
		return fmt.Sprintf("Result %+v (%v), fresh %+v (%v)", resW, errW, resC, errC)
	}
	// Rule out every candidate: a pruned Scored is scored again.
	for _, ord := range got.ords {
		x.addOrd(ord)
		xc.addOrd(ord)
	}
	resW, errW = warm.Decide(got, x)
	resC, errC = cold.Decide(want, xc)
	if errW != nil || errC != nil || !sameResult(resW, resC) {
		return fmt.Sprintf("all excluded: Result %+v (%v), fresh %+v (%v)", resW, errW, resC, errC)
	}
	return ""
}

// BenchmarkMemoGate prices what memoMinWork weighs, per (representative,
// scenario) pair at dim 16, the sparse world's, in a scenario memo already
// holding 512 other pairs: at each scenario size ("work", rows×dim) the
// kernel pair alone, and the memoised pair when it misses — probe, kernel
// and record — plus, once, the memoised pair when it hits. A scenario is
// worth memoising where the miss costs little more than the kernel and a hit
// saves most of it.
func BenchmarkMemoGate(b *testing.B) {
	const dim, n, held = 16, 64, 512
	rng := rand.New(rand.NewSource(1))
	gallery, err := feature.NewGallery(rng, n, dim)
	if err != nil {
		b.Fatal(err)
	}
	s := &scratch{reps: make([]float64, n*dim), seeds: make([]int32, n), sims: make([]float64, n)}
	for slot := range n {
		copy(s.rep(slot, dim), gallery.Observe(slot, 0.1, rng))
		s.repIDs = append(s.repIDs, int32(2*slot+1)) // interleaved with the held ids
		s.byRep = append(s.byRep, int32(slot))
	}
	var f Filter
	var others simMemo
	for id := range int32(held) {
		others.add([]int32{2 * id}, []float64{0.5}, len(others.cells))
	}
	perPair := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pair")
	}
	for _, rows := range []int{2, 8, 32, 128} {
		m, err := feature.NewMatrix(dim, rows)
		if err != nil {
			b.Fatal(err)
		}
		for slot := range n {
			s.seeds[slot] = -1
		}
		for r := range rows {
			copy(m.Row(r), gallery.Observe(r%n, 0.1, rng))
			s.seeds[r%n] = int32(r) // the scenario sights its own reps
		}
		b.Run(fmt.Sprintf("work=%d/kernel", rows*dim), func(b *testing.B) {
			for range b.N {
				feature.MaxSimBatch(s.reps, m, s.seeds, s.sims)
			}
			perPair(b)
		})
		b.Run(fmt.Sprintf("work=%d/miss", rows*dim), func(b *testing.B) {
			e := &cacheEntry{m: m}
			for range b.N {
				e.memo.cells = append(e.memo.cells[:0], others.cells...)
				f.scoreMemo(s, e, dim)
			}
			perPair(b)
		})
		if rows == 2 {
			b.Run("hit", func(b *testing.B) {
				e := &cacheEntry{m: m}
				e.memo.cells = slices.Clone(others.cells)
				f.scoreMemo(s, e, dim) // records every pair
				for range b.N {
					f.scoreMemo(s, e, dim)
				}
				perPair(b)
			})
		}
	}
}

// forgetMemos empties every scenario memo and the representative table, as
// a filter that has scored nothing yet holds them.
func (f *Filter) forgetMemos() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.cache {
		e.memo = simMemo{}
	}
	f.reps.mu.Lock()
	f.reps.index, f.reps.off, f.reps.words = nil, nil, nil
	f.reps.mu.Unlock()
	f.memoBytes.Store(0)
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestWarmMemoProbeAllocatesNothing: on BenchmarkFilterMatch/practical's
// world with every memo warm, reading a scenario's memo allocates nothing,
// and a whole Score allocates only its compact outcome — the Scored and its
// three slices. The probe reads a scratch the test owns, filled by the same
// scoring a pooled Score runs: a scratch taken back from the pool may have
// served another target's Score, on another P.
func TestWarmMemoProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	f, targets, lists := practicalBenchFilter(t)
	for i, e := range targets {
		if _, err := f.Match(e, lists[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.Score(targets[0], lists[0], nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 4 {
		t.Errorf("a warm Score allocates %v times, want 4", allocs)
	}
	s := new(scratch)
	if _, err := f.scoreInto(s, targets[0], lists[0], nil); err != nil {
		t.Fatal(err)
	}
	if len(s.byRep) == 0 {
		t.Fatalf("scoring %s over %d scenarios interned no representative: the memo is not in play", targets[0], len(lists[0]))
	}
	e := f.cache[lists[0][0]]
	if allocs := testing.AllocsPerRun(20, func() {
		if missed := f.scoreMemo(s, e, memoDim); missed != 0 {
			t.Fatalf("%d pairs missed a warm memo", missed)
		}
	}); allocs != 0 {
		t.Errorf("a warm memo probe allocates %v times, want 0", allocs)
	}
}
