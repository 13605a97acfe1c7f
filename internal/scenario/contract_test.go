package scenario

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

// checkContract holds st to the sets added to it, added[id] being scenario
// id's: E rebuilds exactly that set, in its cell and window; the view holds
// it whole as strictly ascending ordinals, each the one Ordinal gives; the
// record lists it in ascending EID order; every window lists its scenarios
// by cell, ties by ID; and its postings equal the ones a scan of the added
// maps gives, for every probe.
func checkContract(t *testing.T, label string, st *Store, added []*EScenario, probes []ids.EID) {
	t.Helper()
	if st.Len() != len(added) {
		t.Fatalf("%s: Len = %d after %d Adds", label, st.Len(), len(added))
	}
	byWin := make(map[int][]ID)
	for id, want := range added {
		id := ID(id)
		byWin[want.Window] = append(byWin[want.Window], id)
		got := st.E(id)
		if got.ID != id || got.Cell != want.Cell || got.Window != want.Window || !maps.Equal(got.EIDs, want.EIDs) {
			t.Fatalf("%s: E(%d) = %v %v, added %v %v", label, id, got, got.EIDs, want, want.EIDs)
		}
		v := st.View(id)
		if len(v.Ords) != len(want.EIDs) || len(v.Attrs) != len(v.Ords) {
			t.Fatalf("%s: scenario %d's view holds %d ordinals, %d attributes for %d EIDs", label, id, len(v.Ords), len(v.Attrs), len(want.EIDs))
		}
		if !slices.IsSorted(v.Ords) || len(slices.Compact(slices.Clone(v.Ords))) != len(v.Ords) {
			t.Fatalf("%s: scenario %d's view %v is not strictly ascending", label, id, v.Ords)
		}
		for e, attr := range want.EIDs {
			if got, ok := v.Attr(st.Ordinal(e)); !ok || got != attr {
				t.Fatalf("%s: scenario %d's view gives %s attribute %v (held %t), added %v", label, id, e, got, ok, attr)
			}
		}
		list := st.AppendEIDAttrs(nil, id)
		if len(list) != len(want.EIDs) || !slices.IsSortedFunc(list, func(a, b EIDAttr) int { return cmp.Compare(a.EID, b.EID) }) {
			t.Fatalf("%s: scenario %d lists %v", label, id, list)
		}
		for _, ea := range list {
			if want.EIDs[ea.EID] != ea.Attr {
				t.Fatalf("%s: scenario %d lists %s as %v, added %v", label, id, ea.EID, ea.Attr, want.EIDs[ea.EID])
			}
		}
	}
	for _, w := range append(st.Windows(), -1<<20) {
		order := st.AtWindow(w)
		want := slices.Clone(byWin[w])
		slices.SortStableFunc(want, func(a, b ID) int { return cmp.Compare(added[a].Cell, added[b].Cell) })
		if !slices.Equal(order, want) {
			t.Fatalf("%s: window %d orders %v, want %v", label, w, order, want)
		}
		for _, e := range probes {
			var wantIDs []ID
			for _, id := range order {
				if added[id].EIDs[e] == AttrInclusive {
					wantIDs = append(wantIDs, id)
				}
			}
			if got := st.Postings(w).Held(st.Ordinal(e)); !slices.Equal(got, wantIDs) {
				t.Fatalf("%s: window %d Held(%s) = %v, the added maps give %v", label, w, e, got, wantIDs)
			}
		}
	}
}

// TestStoreContractProperty adds random and hostile scenarios — empty EID
// sets, vague-only sets, EIDs first seen in a later window, an EID inclusive
// in several scenarios of one window, negative windows and cells — each EID
// list shuffled, reading windows' postings between Adds, and holds the store
// to what was added after every few steps.
func TestStoreContractProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 40; trial++ {
		st := NewStore(nil)
		var added []*EScenario
		probes := []ids.EID{"never-added"}
		numWindows, numCells := 1+rng.Intn(5), 1+rng.Intn(6)
		for step := 0; step < 50; step++ {
			w := rng.Intn(numWindows) - 1
			set := make(map[ids.EID]Attr)
			switch shape := rng.Intn(6); shape {
			case 0: // empty
			default:
				for n := 1 + rng.Intn(5); n > 0; n-- {
					// A fresh EID now and then, first seen at this step,
					// beside ones earlier steps brought.
					e := postEID(rng.Intn(8))
					if rng.Intn(5) == 0 {
						e = ids.EID(fmt.Sprintf("late-%d-%d", step, n))
					}
					attr := AttrInclusive
					if shape == 1 || rng.Intn(3) == 0 {
						attr = AttrVague // shape 1 is vague-only
					}
					set[e] = attr
				}
			}
			cell := geo.CellID(rng.Intn(numCells) - 1)
			list := eidList(set)
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			if _, err := st.Add(cell, w, list, nil); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			added = append(added, &EScenario{Cell: cell, Window: w, EIDs: set})
			for e := range set {
				if !slices.Contains(probes, e) {
					probes = append(probes, e)
				}
			}
			if rng.Intn(3) == 0 {
				st.Postings(rng.Intn(numWindows) - 1).Held(st.Ordinal(postEID(rng.Intn(8)))) // so later Adds grow read windows
			}
			if step%10 == 9 {
				checkContract(t, fmt.Sprintf("trial %d step %d", trial, step), st, added, probes)
			}
		}
	}
}

// TestStoreRefusesRepeatedEIDs: an EID list naming one EID twice, or a V
// side from another cell, stores nothing, and the store goes on as before.
func TestStoreRefusesRepeatedEIDs(t *testing.T) {
	st := NewStore(nil)
	mustAdd(t, st, 1, 0, map[ids.EID]Attr{"a": AttrInclusive})
	if _, err := st.Add(2, 0, []EIDAttr{{"b", AttrInclusive}, {"a", AttrVague}, {"b", AttrVague}}, nil); err == nil {
		t.Error("a list naming b twice was stored")
	}
	if _, err := st.Add(2, 0, []EIDAttr{{"c", AttrInclusive}}, &VScenario{Cell: 3}); err == nil {
		t.Error("a V side from another cell was stored")
	}
	mustAdd(t, st, 2, 0, map[ids.EID]Attr{"b": AttrVague})
	checkContract(t, "after refusals", st, []*EScenario{
		{Cell: 1, EIDs: map[ids.EID]Attr{"a": AttrInclusive}},
		{Cell: 2, EIDs: map[ids.EID]Attr{"b": AttrVague}},
	}, []ids.EID{"a", "b", "c"})
}

// TestStoreBytesPerEIDPair pins what the store keeps per (scenario, EID)
// pair: the view's ordinal and attribute, the slab's growth slack and the
// scenario's own entries spread over its EIDs — at most 16 B. A store that
// kept each scenario's EID map besides (65 B a pair here) fails it. The EID
// strings are allocated first and outlive the measurement, so they are not
// counted.
func TestStoreBytesPerEIDPair(t *testing.T) {
	const numEIDs, numScenarios, perScenario = 4096, 20_000, 16
	eids := make([]ids.EID, numEIDs)
	for i := range eids {
		eids[i] = ids.EID(fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", i>>8, i&255, i%7, i%11, i%13, i%17))
	}
	rng := rand.New(rand.NewSource(5))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := NewStore(nil)
	for n := 0; n < numScenarios; n++ {
		set := make(map[ids.EID]Attr, perScenario)
		for k, off := 0, rng.Intn(numEIDs); k < perScenario; k++ {
			set[eids[(off+k)%numEIDs]] = Attr(1 + rng.Intn(2))
		}
		if _, err := st.Add(geo.CellID(n%500), n/500, eidList(set), nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPair := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (numScenarios * perScenario)
	t.Logf("%.1f B per (scenario, EID) pair over %d pairs", perPair, numScenarios*perScenario)
	if perPair > 16 {
		t.Errorf("the store keeps %.1f B per (scenario, EID) pair, want at most 16", perPair)
	}
	runtime.KeepAlive(st)
	runtime.KeepAlive(eids)
}
