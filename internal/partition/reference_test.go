package partition

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"evmatching/internal/bitset"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// allLeaves is the split loop SplitBy had before it learned which leaves a
// scenario can touch: every leaf of the partition is probed for every
// scenario, and Done, NumSets and Sets are read off the leaf list. It is kept
// here as the oracle for the home-leaf argument — if probing only the home
// leaves of the scenario's inclusive members ever missed a split, or the
// counters drifted from the leaves, the two would part.
type allLeaves struct {
	*Partition
	all []*Node
}

func newAllLeaves(t *testing.T, targets []ids.EID) *allLeaves {
	t.Helper()
	p, err := New(targets)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &allLeaves{Partition: p, all: []*Node{p.root}}
}

func (r *allLeaves) SplitBy(s *scenario.EScenario) bool {
	r.clearMasks()
	for e, attr := range s.EIDs {
		if i, ok := r.idx.pos[e]; ok {
			r.mark(int32(i), attr)
		}
	}
	bitset.OrInto(r.sAny, r.sInc, r.sVag)
	changed := false
	var next []*Node
	for _, leaf := range r.all {
		if r.split(leaf, s.ID) {
			next = append(next, leaf.Left, leaf.Right)
			changed = true
		} else {
			next = append(next, leaf)
		}
	}
	r.all = next
	if changed {
		r.record(s.ID)
	}
	return changed
}

func (r *allLeaves) NumSets() int { return len(r.all) }

func (r *allLeaves) Done() bool {
	for _, leaf := range r.all {
		if leaf.inc.Count() > 1 {
			return false
		}
	}
	return true
}

// live is the oracle of the partition's live set: the targets in leaves with
// ≥2 inclusive members.
func (r *allLeaves) live() map[ids.EID]bool {
	out := make(map[ids.EID]bool)
	for _, leaf := range r.all {
		if in := leaf.InclusiveEIDs(); len(in) > 1 {
			for _, e := range in {
				out[e] = true
			}
		}
	}
	return out
}

// checkLive compares p's live set — NumLive, Prunes on every scenario of st,
// Candidates on every window — with the live targets the oracle's leaves
// name, by brute force over st's scenarios.
func checkLive(t *testing.T, label string, p *Partition, st *scenario.Store, live map[ids.EID]bool) {
	t.Helper()
	if g, w := p.NumLive(), len(live); g != w {
		t.Fatalf("%s: NumLive = %d, reference %d", label, g, w)
	}
	for _, w := range st.Windows() {
		var want []scenario.ID
		for _, id := range st.AtWindow(w) {
			prunes := true
			for e, a := range st.E(id).EIDs {
				if a == scenario.AttrInclusive && live[e] {
					prunes = false
				}
			}
			if g := p.Prunes(st.View(id)); g != prunes {
				t.Fatalf("%s: Prunes(scenario %d) = %t, reference %t", label, id, g, prunes)
			}
			if !prunes {
				want = append(want, id)
			}
		}
		if g := p.Candidates(w, nil); !slices.Equal(g, want) {
			t.Fatalf("%s: Candidates(%d) = %v, reference %v", label, w, g, want)
		}
	}
}

func (r *allLeaves) Sets() [][]ids.EID {
	out := make([][]ids.EID, 0, len(r.all))
	for _, leaf := range r.all {
		if in := leaf.InclusiveEIDs(); len(in) > 0 {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// refWorld draws a target list and a scenario stream that exercise what the
// touched-leaf walk could get wrong: scenarios mixing inclusive and vague
// members, EIDs outside the partition, scenarios repeated verbatim later in
// the stream, empty scenarios, scenarios swallowing whole leaves, and target
// lists of one.
func refWorld(rng *rand.Rand) ([]ids.EID, []*scenario.EScenario) {
	n := 1 + rng.Intn(40)
	if rng.Intn(8) == 0 {
		n = 1
	}
	universe := make([]ids.EID, n+rng.Intn(10))
	for i := range universe {
		universe[i] = ids.EID(rune('A' + i))
	}
	targets := append([]ids.EID(nil), universe[:n]...)
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })

	pInc := []float64{0.05, 0.3, 0.9}[rng.Intn(3)]
	pVag := []float64{0, 0.1, 0.4}[rng.Intn(3)]
	scenarios := make([]*scenario.EScenario, 1+rng.Intn(60))
	for i := range scenarios {
		if i > 0 && rng.Intn(6) == 0 {
			scenarios[i] = scenarios[rng.Intn(i)]
			continue
		}
		members := make(map[ids.EID]scenario.Attr)
		for _, e := range universe {
			switch r := rng.Float64(); {
			case r < pInc:
				members[e] = scenario.AttrInclusive
			case r < pInc+pVag:
				members[e] = scenario.AttrVague
			}
		}
		scenarios[i] = &scenario.EScenario{ID: scenario.ID(i), EIDs: members}
	}
	return targets, scenarios
}

// TestSplitByMatchesAllLeavesReference drives SplitBy and the all-leaves
// reference through the same random scenario streams and compares every
// observable after every step. The partition is bound to a store holding
// the stream's scenarios on a few cells and windows, so its live set is
// checked too.
func TestSplitByMatchesAllLeavesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for world := 0; world < 300; world++ {
		targets, scenarios := refWorld(rng)
		p, err := New(targets)
		if err != nil {
			t.Fatalf("world %d: New: %v", world, err)
		}
		st := scenario.NewStore(nil)
		place := rand.New(rand.NewSource(int64(world)))
		for _, s := range scenarios {
			if _, err := st.Add(geo.CellID(place.Intn(6)), place.Intn(4), eidList(s.EIDs), nil); err != nil {
				t.Fatalf("world %d: Add: %v", world, err)
			}
		}
		p.BindStore(st)
		ref := newAllLeaves(t, targets)
		checkLive(t, fmt.Sprintf("world %d before any step", world), p, st, ref.live())
		var got, want []ids.EID
		p.OnResolve(func(i int) { got = append(got, p.Targets()[i]) })
		ref.OnResolve(func(i int) { want = append(want, ref.Targets()[i]) })

		for step, s := range scenarios {
			if g, w := p.SplitBy(s), ref.SplitBy(s); g != w {
				t.Fatalf("world %d step %d: SplitBy = %v, reference %v", world, step, g, w)
			}
			if g, w := p.Recorded(), ref.Recorded(); !reflect.DeepEqual(g, w) {
				t.Fatalf("world %d step %d: Recorded = %v, reference %v", world, step, g, w)
			}
			if g, w := p.Sets(), ref.Sets(); !reflect.DeepEqual(g, w) {
				t.Fatalf("world %d step %d: Sets = %v, reference %v", world, step, g, w)
			}
			if g, w := p.NumSets(), ref.NumSets(); g != w {
				t.Fatalf("world %d step %d: NumSets = %d, reference %d", world, step, g, w)
			}
			if g, w := p.Done(), ref.Done(); g != w {
				t.Fatalf("world %d step %d: Done = %v, reference %v", world, step, g, w)
			}
			if g, w := p.PostOrder(), ref.PostOrder(); !reflect.DeepEqual(g, w) {
				t.Fatalf("world %d step %d: PostOrder = %v, reference %v", world, step, g, w)
			}
			for i, e := range p.Targets() {
				if g, w := p.PositiveScenarios(i), ref.PositiveScenarios(i); !reflect.DeepEqual(g, w) {
					t.Fatalf("world %d step %d: PositiveScenarios(%s) = %v, reference %v", world, step, e, g, w)
				}
			}
			// The order resolutions fire in within one call follows the
			// leaf walk and is free to differ; which EIDs have fired, and
			// that none fired twice, is not.
			gs, ws := ids.SortEIDs(append([]ids.EID(nil), got...)), ids.SortEIDs(append([]ids.EID(nil), want...))
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("world %d step %d: resolved %v, reference %v", world, step, gs, ws)
			}
			for i := 1; i < len(gs); i++ {
				if gs[i] == gs[i-1] {
					t.Fatalf("world %d step %d: OnResolve fired twice for %s", world, step, gs[i])
				}
			}
			checkLive(t, fmt.Sprintf("world %d step %d", world, step), p, st, ref.live())
		}
		if p.Done() != (len(got) == p.NumTargets() || p.NumTargets() == 1) {
			t.Fatalf("world %d: Done = %v with %d of %d targets resolved", world, p.Done(), len(got), p.NumTargets())
		}
	}
}

// fullRehome is the bookkeeping split had before the smaller-half rule: a
// home-leaf pointer per target, and every split re-homes every inclusive
// member of both children, left child first. It shares only splitNode, the
// set algebra, with the partition, and is the oracle for the slot table and
// for the order OnResolve fires in.
type fullRehome struct {
	*Partition
	homes    []*Node
	writes   int   // home entries rewritten
	resolved []int // target positions, in the order they resolved
}

func newFullRehome(t testing.TB, targets []ids.EID) *fullRehome {
	t.Helper()
	p, err := New(targets)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r := &fullRehome{Partition: p, homes: make([]*Node, p.NumTargets())}
	for i := range r.homes {
		r.homes[i] = p.root
	}
	return r
}

func (r *fullRehome) SplitBy(s *scenario.EScenario) bool {
	r.clearMasks()
	for e, attr := range s.EIDs {
		if i, ok := r.idx.pos[e]; ok {
			r.mark(int32(i), attr)
		}
	}
	bitset.OrInto(r.sAny, r.sInc, r.sVag)
	r.calls++
	changed := false
	r.sInc.ForEach(func(i int) {
		leaf := r.homes[i]
		if leaf.seen == r.calls {
			return
		}
		leaf.seen = r.calls
		left, right, ok := r.splitNode(leaf)
		if !ok {
			return
		}
		leaf.Scenario = s.ID
		leaf.Left, leaf.Right = left, right
		changed = true
		for _, child := range [2]*Node{left, right} {
			child.seen = r.calls
			child.inc.ForEach(func(j int) {
				r.homes[j] = child
				r.writes++
			})
			if child.nInc == 1 {
				child.inc.ForEach(func(j int) { r.resolved = append(r.resolved, j) })
			}
		}
	})
	if changed {
		r.record(s.ID)
	}
	return changed
}

// descend finds target i's inclusive home leaf from the root, as the split
// tree alone says it: left where the left child holds i inclusively.
func descend(n *Node, i int) *Node {
	for !n.isLeaf() {
		if n.Left.inc.Has(i) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// TestSlotTableMatchesTree drives random split sequences, vague members
// included, through the partition and the full re-home oracle. After every
// step each target's slot must name the leaf a root descent finds, the slot
// table must hold every leaf once, and OnResolve must have fired for the
// targets the oracle resolved, once each, in the oracle's order.
func TestSlotTableMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for world := 0; world < 300; world++ {
		targets, scenarios := refWorld(rng)
		p, err := New(targets)
		if err != nil {
			t.Fatalf("world %d: New: %v", world, err)
		}
		ref := newFullRehome(t, targets)
		var got []int
		p.OnResolve(func(i int) { got = append(got, i) })
		for step, s := range scenarios {
			if g, w := p.SplitBy(s), ref.SplitBy(s); g != w {
				t.Fatalf("world %d step %d: SplitBy = %v, oracle %v", world, step, g, w)
			}
			if len(p.leaves) != p.NumSets() {
				t.Fatalf("world %d step %d: %d slots for %d sets", world, step, len(p.leaves), p.NumSets())
			}
			for k, leaf := range p.leaves {
				if !leaf.isLeaf() || leaf.slot != int32(k) {
					t.Fatalf("world %d step %d: slot %d holds a node of slot %d (leaf %t)", world, step, k, leaf.slot, leaf.isLeaf())
				}
			}
			for i := range p.NumTargets() {
				if got, want := p.home(i), descend(p.root, i); got != want {
					t.Fatalf("world %d step %d: target %d's slot %d names a leaf of %v, the tree's is %v",
						world, step, i, p.set[i], got.InclusiveEIDs(), want.InclusiveEIDs())
				}
				if g, w := p.home(i).InclusiveEIDs(), ref.homes[i].InclusiveEIDs(); !slices.Equal(g, w) {
					t.Fatalf("world %d step %d: target %d's home holds %v, oracle %v", world, step, i, g, w)
				}
			}
			if !slices.Equal(got, ref.resolved) {
				t.Fatalf("world %d step %d: OnResolve fired %v, oracle %v", world, step, got, ref.resolved)
			}
		}
	}
}

// relabelWorld is n targets with one of two split sequences: peel, where
// scenario k holds target k alone, so every split peels one target off the
// big leaf — the sparse city's shape, and the worst case for re-homing both
// children, ≈ n²/2 writes — or halve, where scenario b holds the targets
// with bit b of their position set, so every split halves every leaf.
func relabelWorld(n int, halve bool) ([]ids.EID, []*scenario.EScenario) {
	targets := make([]ids.EID, n)
	for i := range targets {
		targets[i] = ids.EID(fmt.Sprintf("t%06d", i))
	}
	var scenarios []*scenario.EScenario
	if halve {
		for b := 0; 1<<b < n; b++ {
			members := make(map[ids.EID]scenario.Attr)
			for i, e := range targets {
				if i>>b&1 == 1 {
					members[e] = scenario.AttrInclusive
				}
			}
			scenarios = append(scenarios, &scenario.EScenario{ID: scenario.ID(b), EIDs: members})
		}
		return targets, scenarios
	}
	for k, e := range targets[:n-1] {
		scenarios = append(scenarios, &scenario.EScenario{ID: scenario.ID(k), EIDs: map[ids.EID]scenario.Attr{e: scenario.AttrInclusive}})
	}
	return targets, scenarios
}

// TestRelabelsAreNLogN pins the smaller-half rule: whatever the split
// sequence, a target changes slot only when it lands in the smaller child,
// so at most ⌈log₂ n⌉ times, and a whole split-to-singletons run rewrites at
// most n·⌈log₂ n⌉ slots — where re-homing both children, as the oracle
// does, costs ≈ n²/2 on the peel-off sequence.
func TestRelabelsAreNLogN(t *testing.T) {
	const n = 4096
	bound := n * bits.Len(uint(n-1))
	for _, halve := range []bool{false, true} {
		targets, scenarios := relabelWorld(n, halve)
		p, err := New(targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scenarios {
			p.SplitBy(s)
		}
		if !p.Done() {
			t.Fatalf("halve=%t: %d sets after the sequence, want %d", halve, p.NumSets(), n)
		}
		if p.relabels > bound {
			t.Errorf("halve=%t: %d relabels over %d targets, want <= n·⌈log₂ n⌉ = %d", halve, p.relabels, n, bound)
		}
		t.Logf("halve=%t: %d relabels (bound %d)", halve, p.relabels, bound)
	}
	// The oracle shows what the bound rules out.
	targets, scenarios := relabelWorld(n, false)
	ref := newFullRehome(t, targets)
	for _, s := range scenarios {
		ref.SplitBy(s)
	}
	if ref.writes <= bound {
		t.Errorf("full re-home wrote %d homes on the peel-off sequence, want > %d", ref.writes, bound)
	}
}

// BenchmarkSplitPeelOff prices a split-to-singletons run over the peel-off
// sequence (relabelWorld): each scenario splits one target off the big leaf.
func BenchmarkSplitPeelOff(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			targets, scenarios := relabelWorld(n, false)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				p, err := New(targets)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range scenarios {
					p.SplitBy(s)
				}
			}
		})
	}
}
