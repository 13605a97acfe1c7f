package vfilter

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// TestExclusionSerialStageMatchesSetSemantics runs the serial V stage — match
// every EID in order, ruling each accepted VID out for the rest — over the
// random worlds with one running Exclusion, and holds every step to what the
// plain VID set means: a second Filter over the same world, which has
// extracted nothing and so interned nothing, gets an Exclusion rebuilt from
// the set's keys for that one call. The two intern VIDs in different orders
// and at different times; the results must agree in every field.
func TestExclusionSerialStageMatchesSetSemantics(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		f, _, list, excluded, err := buildRandomWorld(seed)
		if err != nil {
			t.Fatal(err)
		}
		targets := map[ids.EID]bool{}
		for _, id := range list {
			for _, e := range ids.SortedEIDKeys(f.store.E(id).EIDs) {
				targets[e] = true
			}
		}
		running := excluding(f, ids.SortedVIDKeys(excluded)...)
		for _, e := range ids.SortedEIDKeys(targets) {
			got, err := f.Match(e, list, running)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, _, _, err := buildRandomWorld(seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Match(e, list, excluding(fresh, ids.SortedVIDKeys(excluded)...))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d EID %s: running exclusion %+v, rebuilt set %+v", seed, e, got, want)
			}
			if excluded[got.VID] {
				t.Fatalf("seed %d EID %s: matched excluded %s", seed, e, got.VID)
			}
			if got.VID != ids.NoVID && got.Acceptable {
				excluded[got.VID] = true
				running.Add(got.VID)
			}
		}
	}
}

// TestExclusionAddBeforeExtraction: a VID ruled out before any scenario
// mentioning it was extracted — and one no scenario ever mentions — is
// interned by Add, so the rule-out holds once extraction meets it.
func TestExclusionAddBeforeExtraction(t *testing.T) {
	w := newWorld(t, 3)
	list := []scenario.ID{
		w.addScenario(t, 0, []int{0, 1}),
		w.addScenario(t, 1, []int{0, 1}),
	}
	f := newFilter(t, w, 0.5)
	x := f.NewExclusion()
	x.Add("nobody")
	x.Add(ids.VIDLabel(0))
	x.Add(ids.VIDLabel(0)) // idempotent
	if got := f.Stats().Extractions; got != 0 {
		t.Fatalf("Add extracted %d patches", got)
	}
	res, err := f.Match(eidOf(0), list, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(1) {
		t.Errorf("VID = %v, want %v with %v ruled out up front", res.VID, ids.VIDLabel(1), ids.VIDLabel(0))
	}
	// The clone is independent: ruling the survivor out of it leaves x alone.
	c := x.Clone()
	c.Add(ids.VIDLabel(1))
	if res, err = f.Match(eidOf(0), list, c); err != nil || res.VID != ids.NoVID {
		t.Errorf("clone with both ruled out: VID %v, err %v", res.VID, err)
	}
	if res, err = f.Match(eidOf(0), list, x); err != nil || res.VID != ids.VIDLabel(1) {
		t.Errorf("original after clone.Add: VID %v, err %v", res.VID, err)
	}
}

// TestExclusionLengthIndependentOfTables: the bitset is as long as the
// highest ordinal it holds, the scratch tables as long as the Filter's
// ordinal count at the Match — neither bounds the other.
func TestExclusionLengthIndependentOfTables(t *testing.T) {
	const persons = 150 // three bitset words of ordinals
	w := newWorld(t, persons)
	all := make([]int, persons)
	for p := range all {
		all[p] = p
	}
	// Person 140 is the only one sighted in all three scenarios.
	list := []scenario.ID{w.addScenario(t, 0, all), w.addScenario(t, 1, []int{140, 149}), w.addScenario(t, 2, []int{140, 148})}
	f := newFilter(t, w, 0.5)

	// Shorter: no words at all, then one word, against 150 ordinals.
	short := f.NewExclusion()
	res, err := f.Match(eidOf(140), list, short)
	if err != nil {
		t.Fatal(err)
	}
	if res.VID != ids.VIDLabel(140) {
		t.Fatalf("empty exclusion: VID %v, want %v", res.VID, ids.VIDLabel(140))
	}
	short.Add(ids.VIDLabel(3))
	if len(short.bits) != 1 {
		t.Fatalf("exclusion of one low ordinal spans %d words", len(short.bits))
	}
	if res, err = f.Match(eidOf(140), list, short); err != nil || res.VID != ids.VIDLabel(140) {
		t.Fatalf("one-word exclusion: VID %v, err %v", res.VID, err)
	}

	// Longer: ordinals past everything the pooled scratch has been sized for.
	long := f.NewExclusion()
	for i := 0; i < 200; i++ {
		long.Add(ids.VID(fmt.Sprintf("stranger-%03d", i)))
	}
	long.Add(ids.VIDLabel(140))
	if len(long.bits) <= len(short.bits) {
		t.Fatalf("long exclusion spans %d words", len(long.bits))
	}
	if res, err = f.Match(eidOf(140), list, long); err != nil || res.VID == ids.VIDLabel(140) || res.VID == ids.NoVID {
		t.Fatalf("long exclusion: VID %v, err %v", res.VID, err)
	}

	// Another Filter's exclusion speaks other ordinals: refused, not misread.
	other := newFilter(t, w, 0.5)
	if _, err := other.Match(eidOf(140), list, long); err == nil {
		t.Error("Match accepted an exclusion of another filter")
	}
}

// TestConcurrentMatchSharedExclusion: the parallel V stage hands one
// exclusion set to every mapper. Concurrent Match calls over a cold cache —
// so extraction is interning VIDs while they run — must read it race-free
// and give the serial answers.
func TestConcurrentMatchSharedExclusion(t *testing.T) {
	build := func() (*Filter, [][]scenario.ID) {
		w := newWorld(t, 9)
		shared := w.addScenario(t, 0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
		lists := make([][]scenario.ID, 8)
		for p := range lists {
			lists[p] = []scenario.ID{shared, w.addScenario(t, 1+p, []int{p, 8}), w.addScenario(t, 9+p, []int{p, 8})}
		}
		return newFilter(t, w, 0.5), lists
	}
	serial, lists := build()
	x := excluding(serial, ids.VIDLabel(8), ids.VIDLabel(3))
	want := make([]Result, len(lists))
	for p, list := range lists {
		res, err := serial.Match(eidOf(p), list, x)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = res
	}
	if want[3].VID == ids.VIDLabel(3) || want[0].VID != ids.VIDLabel(0) {
		t.Fatalf("serial reference: person 3 → %v, person 0 → %v", want[3].VID, want[0].VID)
	}

	f, lists := build()
	x = excluding(f, ids.VIDLabel(8), ids.VIDLabel(3))
	got := make([]Result, len(lists))
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for p := range lists {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			got[p], errs[p] = f.Match(eidOf(p), lists[p], x)
		}(p)
	}
	wg.Wait()
	for p := range lists {
		if errs[p] != nil {
			t.Fatalf("person %d: %v", p, errs[p])
		}
		if !reflect.DeepEqual(got[p], want[p]) {
			t.Errorf("person %d: concurrent %+v, serial %+v", p, got[p], want[p])
		}
	}
}

// TestVIDOrdinalsSharedAcrossFilters: the VID ordinals belong to the store. A
// second filter over a store the first has extracted from reads the first's
// ordinals back — the same slices, no VID interned — and matches alike; an
// exclusion made on one filter's ordinals means the same VIDs on the other's.
func TestVIDOrdinalsSharedAcrossFilters(t *testing.T) {
	w := newWorld(t, 4)
	list := []scenario.ID{
		w.addScenario(t, 0, []int{0, 1, 2}),
		w.addScenario(t, 1, []int{0, 1, 3}),
		w.addScenario(t, 2, []int{0, 2, 3}),
	}
	a := newFilter(t, w, 0.5)
	want, err := a.Match(eidOf(0), list, excluding(a, ids.VIDLabel(1)))
	if err != nil {
		t.Fatal(err)
	}
	n := w.store.NumVIDs()
	b := newFilter(t, w, 0.5)
	got, err := b.Match(eidOf(0), list, excluding(b, ids.VIDLabel(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second filter %+v, first %+v", got, want)
	}
	if w.store.NumVIDs() != n {
		t.Errorf("the second filter grew the store's VID table from %d to %d", n, w.store.NumVIDs())
	}
	for _, id := range list {
		if oa, ob := a.cache[id].ords, b.cache[id].ords; &oa[0] != &ob[0] {
			t.Errorf("scenario %d: the filters hold different ordinal slices %v and %v", id, oa, ob)
		}
	}
	xa, xb := excluding(a, ids.VIDLabel(2)), excluding(b, ids.VIDLabel(2))
	if !reflect.DeepEqual(excludedOrds(xa), excludedOrds(xb)) {
		t.Errorf("one VID excluded on two filters: ordinals %v and %v", excludedOrds(xa), excludedOrds(xb))
	}
}
