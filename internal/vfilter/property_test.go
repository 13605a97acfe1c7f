package vfilter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// buildRandomWorld assembles a random store and target assignment.
func buildRandomWorld(seed int64) (*Filter, ids.EID, []scenario.ID, map[ids.VID]bool, error) {
	rng := rand.New(rand.NewSource(seed))
	layout, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 4, 4)
	if err != nil {
		return nil, "", nil, nil, err
	}
	persons := 3 + rng.Intn(10)
	gallery, err := feature.NewGallery(rng, persons, 32)
	if err != nil {
		return nil, "", nil, nil, err
	}
	st := scenario.NewStore(layout)
	numScenarios := 1 + rng.Intn(5)
	var list []scenario.ID
	for w := 0; w < numScenarios; w++ {
		eids := make(map[ids.EID]scenario.Attr)
		var dets []scenario.Detection
		for p := 0; p < persons; p++ {
			if rng.Float64() < 0.5 {
				continue
			}
			eids[ids.EID(rune('a'+p))] = scenario.AttrInclusive
			if rng.Float64() < 0.15 {
				continue // missed detection
			}
			obs := gallery.Observe(p, 0.1, rng)
			dets = append(dets, scenario.Detection{
				VID:        ids.VIDLabel(p),
				Patch:      feature.EncodePatch(obs, 1, rng),
				TruePerson: p,
			})
		}
		cell := geo.CellID(w % 16)
		var v *scenario.VScenario
		if len(dets) > 0 {
			v = &scenario.VScenario{Cell: cell, Window: w, Detections: dets}
		}
		id, err := st.Add(cell, w, eidList(eids), v)
		if err != nil {
			return nil, "", nil, nil, err
		}
		list = append(list, id)
	}
	exclude := map[ids.VID]bool{}
	for p := 0; p < persons; p++ {
		if rng.Float64() < 0.2 {
			exclude[ids.VIDLabel(p)] = true
		}
	}
	target := ids.EID(rune('a' + rng.Intn(persons)))
	f, err := New(st, Config{Extractor: feature.Extractor{Dim: 32}, AcceptMajority: 0.5})
	return f, target, list, exclude, err
}

// TestMatchResultWellFormed checks Match's output invariants on random
// worlds: the VID (if any) appears in some listed scenario and is not
// excluded; the probability and vote fraction are in range; per-scenario
// votes align with the list.
func TestMatchResultWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		filter, target, list, exclude, err := buildRandomWorld(seed)
		if err != nil {
			return false
		}
		res, err := filter.Match(target, list, excluding(filter, ids.SortedVIDKeys(exclude)...))
		if err != nil {
			return false
		}
		if len(res.PerScenario) != len(list) {
			return false
		}
		if res.Probability < 0 || res.Probability > 1 || res.MajorityFrac < 0 || res.MajorityFrac > 1 {
			return false
		}
		if res.VID == ids.NoVID {
			return true
		}
		if exclude[res.VID] {
			return false
		}
		stats := filter.Stats()
		if stats.Extractions < 0 || stats.Comparisons < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMatchDeterministicProperty: identical inputs give identical results,
// including on a fresh filter (the cache is semantics-free).
func TestMatchDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		f1, target, list, exclude, err := buildRandomWorld(seed)
		if err != nil {
			return false
		}
		f2, _, _, _, err := buildRandomWorld(seed)
		if err != nil {
			return false
		}
		r1, err := f1.Match(target, list, excluding(f1, ids.SortedVIDKeys(exclude)...))
		if err != nil {
			return false
		}
		r2, err := f2.Match(target, list, excluding(f2, ids.SortedVIDKeys(exclude)...))
		if err != nil {
			return false
		}
		return r1.VID == r2.VID && r1.MajorityFrac == r2.MajorityFrac
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// BenchmarkFilterMatch measures the Match hot path over a warmed extraction
// cache (one Match before the timer pays the one-time per-scenario
// extraction), so its time/op and allocs/op track the scoring and voting
// loops rather than feature extraction. excluded=1000 is a Match late in a
// universal V stage: a thousand VIDs already accepted, none of them among
// this list's candidates — the cost of carrying the exclusion set, which
// must not grow with it.
func BenchmarkFilterMatch(b *testing.B) {
	filter, list := denseBenchFilter(b)
	accepted := filter.NewExclusion()
	for i := 0; i < 1000; i++ {
		accepted.Add(ids.VIDLabel(1000 + i))
	}
	for _, bc := range []struct {
		name    string
		exclude *Exclusion
	}{{"excluded=0", nil}, {"excluded=1000", accepted}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := filter.Match("a", list, bc.exclude); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// practical is the shape the MaxSim memo serves: scenarios of 126 rows
	// at dim 64, as in bench's serve-ingest world, and targets whose lists
	// share candidates. An op matches every target once: cold with every
	// memo emptied first (outside the timer), warm with them all filled.
	practical, targets, lists := practicalBenchFilter(b)
	matchAll := func(b *testing.B) {
		for i, e := range targets {
			if _, err := practical.Match(e, lists[i], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("practical/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			practical.forgetMemos()
			b.StartTimer()
			matchAll(b)
		}
	})
	b.Run("practical/warm", func(b *testing.B) {
		matchAll(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matchAll(b)
		}
	})
}

// practicalBenchFilter is BenchmarkFilterMatch/practical's world: 160
// persons, 126 of them detected in each of eight scenarios at dim 64, and
// twelve targets over three lists of four to six scenarios, behind a Filter
// whose extraction cache is warm and whose memos are empty.
func practicalBenchFilter(b testing.TB) (*Filter, []ids.EID, [][]scenario.ID) {
	const persons, rows, dim = 160, 126, 64
	rng := rand.New(rand.NewSource(1))
	layout, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	gallery, err := feature.NewGallery(rng, persons, dim)
	if err != nil {
		b.Fatal(err)
	}
	st := scenario.NewStore(layout)
	var scenarios []scenario.ID
	for w := 0; w < 8; w++ {
		var dets []scenario.Detection
		for _, p := range rng.Perm(persons)[:rows] {
			dets = append(dets, scenario.Detection{
				VID:   ids.VIDLabel(p),
				Patch: feature.EncodePatch(gallery.Observe(p, 0.1, rng), 1, rng),
			})
		}
		id, err := st.Add(geo.CellID(w), w, nil, &scenario.VScenario{Cell: geo.CellID(w), Window: w, Detections: dets})
		if err != nil {
			b.Fatal(err)
		}
		scenarios = append(scenarios, id)
	}
	shared := [][]scenario.ID{scenarios[:4], scenarios[2:7], scenarios[1:7]}
	var targets []ids.EID
	var lists [][]scenario.ID
	for t := 0; t < 12; t++ {
		targets = append(targets, ids.EID(rune('a'+t)))
		lists = append(lists, shared[t%len(shared)])
	}
	filter, err := New(st, Config{Extractor: feature.Extractor{Dim: dim}, AcceptMajority: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	if err := filter.ExtractBatch(scenarios); err != nil {
		b.Fatal(err)
	}
	return filter, targets, lists
}

// denseBenchFilter is the benchmarks' world: forty persons, every one of
// them detected in each of four scenarios, behind a Filter whose extraction
// cache is already warm.
func denseBenchFilter(b *testing.B) (*Filter, []scenario.ID) {
	rng := rand.New(rand.NewSource(1))
	layout, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	gallery, err := feature.NewGallery(rng, 40, 64)
	if err != nil {
		b.Fatal(err)
	}
	st := scenario.NewStore(layout)
	var list []scenario.ID
	for w := 0; w < 4; w++ {
		eids := make(map[ids.EID]scenario.Attr)
		var dets []scenario.Detection
		for p := 0; p < 40; p++ {
			eids[ids.EID(rune('a'+p))] = scenario.AttrInclusive
			obs := gallery.Observe(p, 0.1, rng)
			dets = append(dets, scenario.Detection{
				VID:   ids.VIDLabel(p),
				Patch: feature.EncodePatch(obs, 1, rng),
			})
		}
		v := &scenario.VScenario{Cell: geo.CellID(w), Window: w, Detections: dets}
		id, err := st.Add(geo.CellID(w), w, eidList(eids), v)
		if err != nil {
			b.Fatal(err)
		}
		list = append(list, id)
	}
	filter, err := New(st, Config{Extractor: feature.Extractor{Dim: 64, WorkFactor: 4}, AcceptMajority: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := filter.Match("a", list, nil); err != nil { // warm the extraction cache
		b.Fatal(err)
	}
	return filter, list
}
