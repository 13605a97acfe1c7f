package vfilter

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/mrtest"
	"evmatching/internal/scenario"
)

// serialLoop is the reference MatchInOrder is held to: plain Match, then Add
// when acceptable, one target after the other.
func serialLoop(f *Filter, eids []ids.EID, lists [][]scenario.ID, x *Exclusion) ([]Result, error) {
	var out []Result
	for i, e := range eids {
		res, err := f.Match(e, lists[i], x)
		if err != nil {
			return out, err
		}
		if res.VID != ids.NoVID && res.Acceptable {
			x.Add(res.VID)
		}
		out = append(out, res)
	}
	return out, nil
}

// excludedVIDs lists what x rules out, by VID: ordinals differ between
// filters that interned in a different order.
func excludedVIDs(x *Exclusion) []ids.VID {
	x.f.mu.Lock()
	defer x.f.mu.Unlock()
	var out []ids.VID
	for ord, vid := range x.f.vidByOrd {
		if x.has(int32(ord)) {
			out = append(out, vid)
		}
	}
	slices.Sort(out)
	return out
}

// orderedWorld is one MatchInOrder input: a store, and targets with lists.
type orderedWorld struct {
	w     *world
	eids  []ids.EID
	lists [][]scenario.ID
	pre   []ids.VID // ruled out before the call
}

// randomOrderedWorld builds a small random world with the usual trouble in
// it: missed detections, VIDs detected twice in one scenario, empty lists,
// and targets that come round a second time after their VID was accepted.
func randomOrderedWorld(t *testing.T, seed int64) orderedWorld {
	rng := rand.New(rand.NewSource(seed))
	persons := 4 + rng.Intn(9)
	ow := orderedWorld{w: newWorld(t, persons)}
	in := make([][]scenario.ID, persons)
	for win := 0; win < 3+rng.Intn(6); win++ {
		var members, missing []int
		for p := 0; p < persons; p++ {
			if rng.Float64() < 0.4 {
				continue
			}
			members = append(members, p)
			switch r := rng.Float64(); {
			case r < 0.15:
				missing = append(missing, p)
			case r < 0.25:
				members = append(members, p) // a second detection of the same VID
			}
		}
		if len(members) == 0 {
			continue
		}
		id := ow.w.addScenario(t, win, members, missing...)
		for _, p := range members {
			if !slices.Contains(in[p], id) {
				in[p] = append(in[p], id)
			}
		}
	}
	for _, p := range rng.Perm(persons) {
		list := in[p]
		if rng.Float64() < 0.1 {
			list = nil
		}
		ow.eids = append(ow.eids, eidOf(p))
		ow.lists = append(ow.lists, list)
		if rng.Float64() < 0.2 {
			ow.eids = append(ow.eids, eidOf(p))
			ow.lists = append(ow.lists, in[p])
		}
	}
	if rng.Float64() < 0.5 {
		ow.pre = append(ow.pre, ids.VIDLabel(rng.Intn(persons)))
	}
	return ow
}

// crowdedBarWorld is the case Decide must score again for: four scenarios all
// sighting persons 0 and 1 (the only ones over the presence bar) and one
// bystander each, and many targets sharing that list. The first two targets
// take 0 and 1; every later one, if it was scored before they were decided,
// holds only candidates that are excluded by its turn, where the serial loop
// would have fallen back to the bystanders.
func crowdedBarWorld(t *testing.T) orderedWorld {
	ow := orderedWorld{w: newWorld(t, 6)}
	var list []scenario.ID
	for win := 0; win < 4; win++ {
		list = append(list, ow.w.addScenario(t, win, []int{0, 1, 2 + win}))
	}
	for i := 0; i < 12; i++ {
		ow.eids = append(ow.eids, eidOf(i))
		ow.lists = append(ow.lists, list)
	}
	return ow
}

// check runs the serial loop and MatchInOrder over separate filters on ow's
// store and compares everything observable: results, emit order, the final
// exclusion, and the error.
func (ow orderedWorld) check(t *testing.T) {
	t.Helper()
	ref := newFilter(t, ow.w, 0.5)
	refX := excluding(ref, ow.pre...)
	want, wantErr := serialLoop(ref, ow.eids, ow.lists, refX)

	f := newFilter(t, ow.w, 0.5)
	x := excluding(f, ow.pre...)
	var got []Result
	err := f.MatchInOrder(context.Background(), ow.eids, ow.lists, x, func(i int, res Result) {
		if i != len(got) {
			t.Errorf("emit(%d) after %d emits", i, len(got))
		}
		got = append(got, res)
	})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, serial loop %v", err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results emitted, serial loop %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("target %d (%s):\n got %+v\nwant %+v", i, ow.eids[i], got[i], want[i])
		}
	}
	if g, w := excludedVIDs(x), excludedVIDs(refX); !slices.Equal(g, w) {
		t.Errorf("final exclusion %v, serial loop %v", g, w)
	}
}

// atProcs runs fn as a subtest under each worker count MatchInOrder can see.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestMatchInOrderEqualsSerialLoop: at every worker count MatchInOrder is the
// plain Match-then-Add loop — same results, same emit order, same final
// exclusion — on random worlds and on the hostile ones.
func TestMatchInOrderEqualsSerialLoop(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			randomOrderedWorld(t, seed).check(t)
		}
		// Enough repeats that the scorers are caught ahead of the decider.
		for i := 0; i < 20; i++ {
			crowdedBarWorld(t).check(t)
		}
		empty := randomOrderedWorld(t, 3)
		empty.eids, empty.lists = nil, nil
		empty.check(t)
	})
}

// TestMatchInOrderStopsAtSerialError: a scenario whose extraction fails in
// the middle of the target list ends the call with that error after exactly
// the targets before it were emitted, whatever the scorers had already done
// beyond it.
func TestMatchInOrderStopsAtSerialError(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for seed := int64(0); seed < 10; seed++ {
			ow := randomOrderedWorld(t, seed)
			obs := ow.w.gallery.Observe(0, 0.03, ow.w.rng)
			bad, err := ow.w.store.Add(
				&scenario.EScenario{Cell: 1, Window: 99, EIDs: map[ids.EID]scenario.Attr{eidOf(0): scenario.AttrInclusive}},
				&scenario.VScenario{Cell: 1, Window: 99, Detections: []scenario.Detection{
					{VID: ids.VIDLabel(0), Patch: feature.EncodePatch(obs, 1, ow.w.rng)},
					{VID: ids.VIDLabel(1), Patch: feature.Patch{W: 2, H: 2, Pix: []byte{1}}},
				}})
			if err != nil {
				t.Fatal(err)
			}
			k := len(ow.eids) / 2
			ow.lists[k] = append(slices.Clone(ow.lists[k]), bad)
			ow.check(t)

			f := newFilter(t, ow.w, 0.5)
			emitted := 0
			err = f.MatchInOrder(context.Background(), ow.eids, ow.lists, nil, func(int, Result) { emitted++ })
			if !errors.Is(err, feature.ErrBadPatch) || emitted != k {
				t.Errorf("seed %d: %d targets emitted, then %v; want %d, then the bad patch", seed, emitted, err, k)
			}
		}
	})
}

// TestDecideAfterScoreEqualsMatch: a Scored computed under one exclusion can
// be decided under any larger one and gives what Match gives under the
// larger one — including when the larger one swallows every candidate that
// was over the presence bar.
func TestDecideAfterScoreEqualsMatch(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		f, target, list, excluded, err := buildRandomWorld(seed)
		if err != nil {
			t.Fatal(err)
		}
		x0 := ids.SortedVIDKeys(excluded)
		sc, err := f.Score(target, list, excluding(f, x0...))
		if err != nil {
			t.Fatal(err)
		}
		var free []ids.VID // every VID of the list that x0 leaves in play
		for _, id := range list {
			if v := f.store.V(id); v != nil {
				for _, d := range v.Detections {
					if !excluded[d.VID] && !slices.Contains(free, d.VID) {
						free = append(free, d.VID)
					}
				}
			}
		}
		for mask := 0; mask < 1<<len(free); mask++ {
			x := excluding(f, x0...)
			for i, vid := range free {
				if mask&(1<<i) != 0 {
					x.Add(vid)
				}
			}
			got, err := f.Decide(sc, x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.Match(target, list, x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, x0 %v plus %0*b of %v:\n got %+v\nwant %+v", seed, x0, len(free), mask, free, got, want)
			}
		}
	}
}

// TestMatchInOrderCancel: a cancelled context ends the call at the next
// target, and no scorer outlives it.
func TestMatchInOrderCancel(t *testing.T) {
	mrtest.CheckGoroutines(t)
	atProcs(t, func(t *testing.T) {
		ow := crowdedBarWorld(t)
		for len(ow.eids) < 400 {
			ow.eids = append(ow.eids, ow.eids...)
			ow.lists = append(ow.lists, ow.lists...)
		}
		f := newFilter(t, ow.w, 0.5)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		emitted := 0
		err := f.MatchInOrder(ctx, ow.eids, ow.lists, nil, func(i int, _ Result) {
			emitted++
			if i == 3 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) || emitted != 4 {
			t.Errorf("%d targets emitted, then %v; want 4, then context.Canceled", emitted, err)
		}
		err = f.MatchInOrder(ctx, ow.eids, ow.lists, nil, func(int, Result) { t.Error("emit after cancellation") })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled before the call: %v", err)
		}
	})
}

// BenchmarkMatchInOrder is the rule-out loop over forty targets sharing one
// dense four-scenario list, extraction cached: procs=1 is the loop scored on
// the caller's goroutine, procs=2 the same work with two scorers.
func BenchmarkMatchInOrder(b *testing.B) {
	filter, list := denseBenchFilter(b)
	eids := make([]ids.EID, 40)
	lists := make([][]scenario.ID, len(eids))
	for p := range eids {
		eids[p], lists[p] = eidOf(p), list
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := filter.MatchInOrder(context.Background(), eids, lists, nil, func(int, Result) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
