package vfilter

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// world is a hand-built scenario store over a small gallery.
type world struct {
	store   *scenario.Store
	gallery *feature.Gallery
	rng     *rand.Rand
}

func newWorld(t *testing.T, persons int) *world {
	t.Helper()
	layout, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	g, err := feature.NewGallery(rng, persons, 64)
	if err != nil {
		t.Fatal(err)
	}
	return &world{store: scenario.NewStore(layout), gallery: g, rng: rng}
}

// addScenario adds an EV-Scenario at the given window containing the given
// persons; person indexes in missing are left out of the V side (missed
// detections). Person i is assumed to carry EID "e<i>".
// eidList is set as a store adds it, in ascending EID order.
func eidList(set map[ids.EID]scenario.Attr) []scenario.EIDAttr {
	list := make([]scenario.EIDAttr, 0, len(set))
	for _, e := range ids.SortedEIDKeys(set) {
		list = append(list, scenario.EIDAttr{EID: e, Attr: set[e]})
	}
	return list
}

func (w *world) addScenario(t *testing.T, window int, persons []int, missing ...int) scenario.ID {
	t.Helper()
	miss := map[int]bool{}
	for _, m := range missing {
		miss[m] = true
	}
	eids := make(map[ids.EID]scenario.Attr, len(persons))
	var dets []scenario.Detection
	for _, p := range persons {
		eids[eidOf(p)] = scenario.AttrInclusive
		if miss[p] {
			continue
		}
		obs := w.gallery.Observe(p, 0.03, w.rng)
		dets = append(dets, scenario.Detection{
			VID:        ids.VIDLabel(p),
			Patch:      feature.EncodePatch(obs, 1, w.rng),
			TruePerson: p,
		})
	}
	cell := geo.CellID(window % 16)
	var v *scenario.VScenario
	if len(dets) > 0 {
		v = &scenario.VScenario{Cell: cell, Window: window, Detections: dets}
	}
	id, err := w.store.Add(cell, window, eidList(eids), v)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func eidOf(p int) ids.EID { return ids.EID(rune('a' + p)) }

func newFilter(t *testing.T, w *world, acceptMajority float64) *Filter {
	t.Helper()
	f, err := New(w.store, Config{
		Extractor:      feature.Extractor{Dim: 64},
		AcceptMajority: acceptMajority,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{Extractor: feature.Extractor{Dim: 64}}); err == nil {
		t.Error("want error for nil store")
	}
	w := newWorld(t, 2)
	if _, err := New(w.store, Config{Extractor: feature.Extractor{Dim: 1}}); err == nil {
		t.Error("want error for tiny extractor dim")
	}
	if _, err := New(w.store, Config{Extractor: feature.Extractor{Dim: 8}, AcceptMajority: 2}); err == nil {
		t.Error("want error for AcceptMajority > 1")
	}
}

func TestMatchSingleCandidate(t *testing.T) {
	w := newWorld(t, 4)
	id := w.addScenario(t, 0, []int{0})
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(0), []scenario.ID{id}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(0) {
		t.Errorf("VID = %v, want %v", res.VID, ids.VIDLabel(0))
	}
	if !res.Acceptable || res.MajorityFrac != 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestMatchAcrossScenarios(t *testing.T) {
	// Person 0 appears in all three scenarios; confusers vary. The right
	// VID is the only one present throughout and must win every vote.
	w := newWorld(t, 6)
	list := []scenario.ID{
		w.addScenario(t, 0, []int{0, 1, 2}),
		w.addScenario(t, 1, []int{0, 2, 3}),
		w.addScenario(t, 2, []int{0, 4, 5}),
	}
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(0), list, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(0) {
		t.Errorf("VID = %v, want %v", res.VID, ids.VIDLabel(0))
	}
	for i, v := range res.PerScenario {
		if v != ids.VIDLabel(0) {
			t.Errorf("scenario %d vote = %v", i, v)
		}
	}
	if res.Probability <= 0.3 {
		t.Errorf("Probability = %v, suspiciously low for the true VID", res.Probability)
	}
}

// excluding returns an Exclusion of f holding the given VIDs.
func excluding(f *Filter, vids ...ids.VID) *Exclusion {
	x := f.NewExclusion()
	for _, vid := range vids {
		x.Add(vid)
	}
	return x
}

func TestMatchRuleOut(t *testing.T) {
	// Persons 0 and 1 travel together through every scenario: without
	// rule-out the match is a coin flip; excluding person 0's VID forces 1.
	w := newWorld(t, 3)
	list := []scenario.ID{
		w.addScenario(t, 0, []int{0, 1}),
		w.addScenario(t, 1, []int{0, 1}),
	}
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(1), list, excluding(f, ids.VIDLabel(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(1) {
		t.Errorf("VID = %v, want %v after rule-out", res.VID, ids.VIDLabel(1))
	}
}

func TestMatchMissingVIDMajoritySurvives(t *testing.T) {
	// Person 0 is missed in one of three scenarios; the other two still
	// carry the majority.
	w := newWorld(t, 6)
	list := []scenario.ID{
		w.addScenario(t, 0, []int{0, 1}),
		w.addScenario(t, 1, []int{0, 2}, 0), // 0 missed here
		w.addScenario(t, 2, []int{0, 3}),
	}
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(0), list, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(0) {
		t.Errorf("VID = %v, want %v despite one miss", res.VID, ids.VIDLabel(0))
	}
	// The single-scenario bystanders are pruned (they cannot carry a
	// majority), so the missed scenario simply does not vote.
	if res.MajorityFrac < 0.5 {
		t.Errorf("MajorityFrac = %v, want >= 0.5", res.MajorityFrac)
	}
}

func TestMatchPruningFallbackUnderHeavyMissing(t *testing.T) {
	// The true person is detected in only 1 of 3 scenarios: below the
	// presence bar. Pruning must fall back to all candidates rather than
	// leave the EID unmatchable.
	w := newWorld(t, 2)
	list := []scenario.ID{
		w.addScenario(t, 0, []int{0, 1}, 0),
		w.addScenario(t, 1, []int{0, 1}, 0, 1),
		w.addScenario(t, 2, []int{0, 1}, 1),
	}
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(0), list, excluding(f, ids.VIDLabel(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(0) {
		t.Errorf("VID = %v, want %v via fallback", res.VID, ids.VIDLabel(0))
	}
}

func TestMatchEmptyListAndNoCandidates(t *testing.T) {
	w := newWorld(t, 2)
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.NoVID || res.Acceptable {
		t.Errorf("empty list res = %+v", res)
	}
	// A scenario whose only detection is excluded leaves no candidates.
	id := w.addScenario(t, 0, []int{0})
	res, err = f.Match(eidOf(0), []scenario.ID{id}, excluding(f, ids.VIDLabel(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.NoVID {
		t.Errorf("VID = %v, want NoVID when all candidates excluded", res.VID)
	}
}

func TestMatchNilVScenario(t *testing.T) {
	w := newWorld(t, 3)
	// Scenario where both detections are missed: V side is nil.
	empty := w.addScenario(t, 0, []int{0, 1}, 0, 1)
	full := w.addScenario(t, 1, []int{0, 2})
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(0), []scenario.ID{empty, full}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(0) {
		t.Errorf("VID = %v, want %v", res.VID, ids.VIDLabel(0))
	}
	if res.PerScenario[0] != ids.NoVID {
		t.Errorf("empty scenario voted %v", res.PerScenario[0])
	}
}

func TestScenarioReuseCache(t *testing.T) {
	w := newWorld(t, 4)
	shared := w.addScenario(t, 0, []int{0, 1, 2, 3})
	only0 := w.addScenario(t, 1, []int{0})
	only1 := w.addScenario(t, 2, []int{1})
	f := newFilter(t, w, 0.5)
	if _, err := f.Match(eidOf(0), []scenario.ID{shared, only0}, nil); err != nil {
		t.Fatal(err)
	}
	afterFirst := f.Stats()
	if _, err := f.Match(eidOf(1), []scenario.ID{shared, only1}, nil); err != nil {
		t.Fatal(err)
	}
	afterSecond := f.Stats()
	if afterFirst.ScenariosProcessed != 2 {
		t.Errorf("first match processed %d scenarios, want 2", afterFirst.ScenariosProcessed)
	}
	// The shared scenario must not be re-extracted: only the new one counts.
	if got := afterSecond.ScenariosProcessed - afterFirst.ScenariosProcessed; got != 1 {
		t.Errorf("second match processed %d new scenarios, want 1 (reuse)", got)
	}
	if afterSecond.Extractions <= afterFirst.Extractions {
		t.Error("second match should still extract the new scenario")
	}
	if afterSecond.Comparisons <= afterFirst.Comparisons {
		t.Error("comparisons should grow with each match")
	}
}

func TestMatchConcurrentSafe(t *testing.T) {
	w := newWorld(t, 8)
	shared := w.addScenario(t, 0, []int{0, 1, 2, 3, 4, 5, 6, 7})
	lists := make([][]scenario.ID, 8)
	for p := 0; p < 8; p++ {
		lists[p] = []scenario.ID{shared, w.addScenario(t, 1+p, []int{p})}
	}
	f := newFilter(t, w, 0.5)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	results := make([]Result, 8)
	// Stats readers race the matchers: the typed-atomic counters must give a
	// race-free snapshot whose monotone fields never run backwards.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last Stats
			for {
				s := f.Stats()
				if s.ScenariosProcessed < last.ScenariosProcessed ||
					s.Extractions < last.Extractions || s.Comparisons < last.Comparisons {
					t.Errorf("stats snapshot went backwards: %+v after %+v", s, last)
					return
				}
				last = s
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = f.Match(eidOf(p), lists[p], nil)
		}(p)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for p := 0; p < 8; p++ {
		if errs[p] != nil {
			t.Fatalf("person %d: %v", p, errs[p])
		}
		if results[p].VID != ids.VIDLabel(p) {
			t.Errorf("person %d matched %v", p, results[p].VID)
		}
	}
	if got := f.Stats().ScenariosProcessed; got != 9 {
		t.Errorf("ScenariosProcessed = %d, want 9 (shared extracted once)", got)
	}
}

func TestAcceptMajorityThreshold(t *testing.T) {
	// Person 0 missed in 1 of 2 scenarios: majority 1/2 = 0.5.
	w := newWorld(t, 4)
	list := []scenario.ID{
		w.addScenario(t, 0, []int{0, 1}),
		w.addScenario(t, 1, []int{0, 2}, 0),
	}
	strict := newFilter(t, w, 0.9)
	res, err := strict.Match(eidOf(0), list, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acceptable {
		t.Errorf("res acceptable at threshold 0.9 with MajorityFrac %v", res.MajorityFrac)
	}
}

func TestFeaturesEmptyScenario(t *testing.T) {
	w := newWorld(t, 2)
	id := w.addScenario(t, 0, []int{0, 1}, 0, 1)
	f := newFilter(t, w, 0.5)
	feats, err := f.Features(id)
	if err != nil {
		t.Fatal(err)
	}
	if feats != nil {
		t.Errorf("Features of detection-less scenario = %v, want nil", feats)
	}
	if f.Stats().ScenariosProcessed != 0 {
		t.Error("empty scenario counted as processed")
	}
}

func TestMatchMarginDiagnostics(t *testing.T) {
	w := newWorld(t, 3)
	// Lone candidate: infinite margin, no runner-up.
	solo := w.addScenario(t, 0, []int{0})
	f := newFilter(t, w, 0.5)
	res, err := f.Match(eidOf(0), []scenario.ID{solo}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Margin, 1) || res.RunnerUp != ids.NoVID {
		t.Errorf("solo margin = %v runnerUp = %v", res.Margin, res.RunnerUp)
	}
	// Two co-traveling candidates: finite margin >= 1 and a named runner-up.
	list := []scenario.ID{
		w.addScenario(t, 1, []int{1, 2}),
		w.addScenario(t, 2, []int{1, 2}),
	}
	res, err = f.Match(eidOf(1), list, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunnerUp == ids.NoVID || res.RunnerUp == res.VID {
		t.Errorf("runner-up = %v (winner %v)", res.RunnerUp, res.VID)
	}
	if math.IsInf(res.Margin, 1) || res.Margin < 1 {
		t.Errorf("margin = %v, want finite >= 1", res.Margin)
	}
}

// TestExtractBatchConcurrentWithMatch races the batched-extraction entry
// point against Match calls over overlapping scenario lists (the schedule the
// batched parallel V stage produces). The shared cache must keep every
// scenario's extraction exactly-once however the callers interleave — run
// under -race in CI's concurrency tier.
func TestExtractBatchConcurrentWithMatch(t *testing.T) {
	w := newWorld(t, 8)
	shared := w.addScenario(t, 0, []int{0, 1, 2, 3, 4, 5, 6, 7})
	all := []scenario.ID{shared}
	lists := make([][]scenario.ID, 8)
	for p := 0; p < 8; p++ {
		own := w.addScenario(t, 1+p, []int{p})
		all = append(all, own)
		lists[p] = []scenario.ID{shared, own}
	}
	f := newFilter(t, w, 0.5)
	var wg sync.WaitGroup
	errs := make([]error, 12)
	// Four batch extractors over overlapping windows of the full list...
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := i * 2
			hi := lo + 5
			if hi > len(all) {
				hi = len(all)
			}
			errs[8+i] = f.ExtractBatch(all[lo:hi])
		}(i)
	}
	// ...racing eight matchers that demand the same scenarios.
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			_, errs[p] = f.Match(eidOf(p), lists[p], nil)
		}(p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if got := f.Stats().ScenariosProcessed; got != len(all) {
		t.Errorf("ScenariosProcessed = %d, want %d (each scenario exactly once)", got, len(all))
	}
}
