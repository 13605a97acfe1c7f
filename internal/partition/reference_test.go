package partition

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// allLeaves is the split loop SplitBy had before it learned which leaves a
// scenario can touch: every leaf of the partition is probed for every
// scenario, its marked members gathered to the front of its range by a scan
// of the range, and Done, NumSets, Sets and Recorded (deduplicated here) are
// read off the leaf list. It shares only split, the cut and its bookkeeping,
// with the partition, and is the oracle for the home-leaf argument and for
// the claim that a scenario is never recorded twice — if probing only the
// home leaves of the scenario's inclusive members ever missed a split, or
// the counters drifted from the leaves, the two would part.
type allLeaves struct {
	*Partition
	all   []*Node
	inRec map[scenario.ID]bool
}

func newAllLeaves(t *testing.T, targets []ids.EID) *allLeaves {
	t.Helper()
	p, err := New(targets)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &allLeaves{Partition: p, all: []*Node{p.root}, inRec: make(map[scenario.ID]bool)}
}

func (r *allLeaves) SplitBy(s *scenario.EScenario) bool {
	changed := false
	var next []*Node
	for _, leaf := range r.all {
		for k := leaf.lo; k < leaf.hi; k++ {
			if i := r.elems[k]; s.EIDs[r.eids[i]] == scenario.AttrInclusive {
				front := leaf.lo + leaf.marked
				j := r.elems[front]
				r.elems[k], r.elems[front] = j, i
				r.at[j], r.at[i] = k, front
				leaf.marked++
			}
		}
		if leaf.marked > 0 && r.split(leaf, s.ID) {
			next = append(next, leaf.Left, leaf.Right)
			changed = true
		} else {
			next = append(next, leaf)
		}
	}
	r.all = next
	if changed && !r.inRec[s.ID] {
		r.inRec[s.ID] = true
		r.recorded = append(r.recorded, s.ID)
	}
	return changed
}

func (r *allLeaves) NumSets() int { return len(r.all) }

func (r *allLeaves) Done() bool {
	for _, leaf := range r.all {
		if leaf.hi-leaf.lo > 1 {
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
		if in := r.members(leaf); len(in) > 1 {
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
		out = append(out, r.members(leaf))
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
			label := fmt.Sprintf("world %d step %d", world, step)
			compareWithReference(t, label, p, ref, got, want)
			checkLive(t, label, p, st, ref.live())
		}
		if p.Done() != (len(got) == p.NumTargets() || p.NumTargets() == 1) {
			t.Fatalf("world %d: Done = %v with %d of %d targets resolved", world, p.Done(), len(got), p.NumTargets())
		}
	}
}

// compareWithReference compares every observable of p with the all-leaves
// reference's; got and want are the EIDs each one's OnResolve has fired for.
func compareWithReference(t *testing.T, label string, p *Partition, ref *allLeaves, got, want []ids.EID) {
	t.Helper()
	if g, w := p.Recorded(), ref.Recorded(); !slices.Equal(g, w) {
		t.Fatalf("%s: Recorded = %v, reference %v", label, g, w)
	}
	if g, w := p.Sets(), ref.Sets(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Sets = %v, reference %v", label, g, w)
	}
	if g, w := p.NumSets(), ref.NumSets(); g != w {
		t.Fatalf("%s: NumSets = %d, reference %d", label, g, w)
	}
	if g, w := p.Done(), ref.Done(); g != w {
		t.Fatalf("%s: Done = %v, reference %v", label, g, w)
	}
	if g, w := p.PostOrder(), ref.PostOrder(); !slices.Equal(g, w) {
		t.Fatalf("%s: PostOrder = %v, reference %v", label, g, w)
	}
	for i, e := range p.Targets() {
		if g, w := p.PositiveScenarios(i), ref.PositiveScenarios(i); !slices.Equal(g, w) {
			t.Fatalf("%s: PositiveScenarios(%s) = %v, reference %v", label, e, g, w)
		}
	}
	// The order resolutions fire in within one call follows the leaf walk
	// and is free to differ; which EIDs have fired, and that none fired
	// twice, is not.
	gs, ws := ids.SortEIDs(slices.Clone(got)), ids.SortEIDs(slices.Clone(want))
	if !slices.Equal(gs, ws) {
		t.Fatalf("%s: resolved %v, reference %v", label, gs, ws)
	}
	for i := 1; i < len(gs); i++ {
		if gs[i] == gs[i-1] {
			t.Fatalf("%s: OnResolve fired twice for %s", label, gs[i])
		}
	}
}

// fullRehome is the bookkeeping split had before the smaller-half rule: a
// home-leaf pointer per target, and every split re-homes every member of
// both children, left child first. Each touched leaf's range is rewritten as
// its scenario members then the rest, in a scan of the range; it shares no
// split code with the partition, and is the oracle for the slot table and
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
	probed := make(map[*Node]bool)
	changed := false
	for i, e := range r.eids {
		leaf := r.homes[i]
		if s.EIDs[e] != scenario.AttrInclusive || probed[leaf] {
			continue
		}
		probed[leaf] = true
		var in, out []int32
		for _, j := range r.elems[leaf.lo:leaf.hi] {
			if s.EIDs[r.eids[j]] == scenario.AttrInclusive {
				in = append(in, j)
			} else {
				out = append(out, j)
			}
		}
		if len(out) == 0 {
			continue
		}
		for k, j := range append(in, out...) {
			r.elems[leaf.lo+int32(k)] = j
			r.at[j] = leaf.lo + int32(k)
		}
		mid := leaf.lo + int32(len(in))
		left := &Node{lo: leaf.lo, hi: mid, Scenario: scenario.NoID}
		right := &Node{lo: mid, hi: leaf.hi, Scenario: scenario.NoID}
		leaf.Scenario = s.ID
		leaf.Left, leaf.Right = left, right
		changed = true
		for _, child := range [2]*Node{left, right} {
			probed[child] = true
			for _, j := range r.elems[child.lo:child.hi] {
				r.homes[j] = child
				r.writes++
			}
			if child.hi-child.lo == 1 {
				r.resolved = append(r.resolved, int(r.elems[child.lo]))
			}
		}
	}
	if changed {
		r.recorded = append(r.recorded, s.ID)
	}
	return changed
}

// descend finds target i's home leaf from the root, as the split tree alone
// says it: left where the left child's range holds i.
func descend(p *Partition, i int) *Node {
	n := p.root
	for !n.isLeaf() {
		if slices.Contains(p.elems[n.Left.lo:n.Left.hi], int32(i)) {
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
				if p.elems[p.at[i]] != int32(i) {
					t.Fatalf("world %d step %d: target %d is at %d, which holds %d", world, step, i, p.at[i], p.elems[p.at[i]])
				}
				if got, want := p.home(i), descend(p, i); got != want {
					t.Fatalf("world %d step %d: target %d's slot %d names a leaf of %v, the tree's is %v",
						world, step, i, p.set[i], p.members(got), p.members(want))
				}
				if g, w := p.members(p.home(i)), ref.members(ref.homes[i]); !slices.Equal(g, w) {
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

// TestSplitBytesIndependentOfWidth pins what a split allocates: New plus a
// split-to-singletons run over the peel-off sequence (relabelWorld) costs
// about as many bytes per split at n = 8 000 as at n = 2 000. A split that
// copied n-bit member sets into its children would pay O(n/64) words each,
// four times as many at the larger n.
func TestSplitBytesIndependentOfWidth(t *testing.T) {
	perSplit := func(n int) float64 {
		targets, scenarios := relabelWorld(n, false)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := New(targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scenarios {
			p.SplitBy(s)
		}
		runtime.ReadMemStats(&after)
		if !p.Done() {
			t.Fatalf("n=%d: %d sets after the sequence, want %d", n, p.NumSets(), n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(scenarios))
	}
	small, large := perSplit(2000), perSplit(8000)
	t.Logf("bytes per split: %.0f at n=2000, %.0f at n=8000 (ratio %.2f)", small, large, large/small)
	if large > 1.5*small {
		t.Errorf("bytes per split grew %.2fx from n=2000 to n=8000 (%.0f to %.0f), want <= 1.5x", large/small, small, large)
	}
}

// FuzzSplitMatchesReference decodes a target count and a scenario stream
// from the bytes — each step either a new scenario, an inclusive and a vague
// mask over the targets and two EIDs outside them, or a replay of an earlier
// one — adds the scenarios to a store, and drives SplitView on the store's
// views beside the all-leaves reference on the same scenarios, comparing
// every observable after every step.
func FuzzSplitMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0x00, 0b00011, 0b00100, 0x05, 0b01010, 0b10000, 0x80, 0x01, 0b11111, 0, 0x81})
	f.Add([]byte{1, 0x00, 0b001, 0b010, 0x02, 0b110, 0b001, 0x80})
	rng := rand.New(rand.NewSource(53))
	for range 3 {
		seed := make([]byte, 1+rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%48
		universe := make([]ids.EID, n+2)
		for i := range universe {
			universe[i] = ids.EID(fmt.Sprintf("u%02d", i))
		}
		width := (len(universe) + 7) / 8
		st := scenario.NewStore(nil)
		var scenarios []*scenario.EScenario
		var steps []int
		for rest := data[1:]; len(rest) > 0 && len(steps) < 64; {
			if head := rest[0]; head&0x80 != 0 && len(scenarios) > 0 {
				steps = append(steps, int(head&0x7f)%len(scenarios))
				rest = rest[1:]
				continue
			}
			if len(rest) < 1+2*width {
				break
			}
			head, inc, vag := rest[0], rest[1:1+width], rest[1+width:1+2*width]
			rest = rest[1+2*width:]
			members := make(map[ids.EID]scenario.Attr)
			for i, e := range universe {
				switch {
				case inc[i/8]>>(i%8)&1 == 1:
					members[e] = scenario.AttrInclusive
				case vag[i/8]>>(i%8)&1 == 1:
					members[e] = scenario.AttrVague
				}
			}
			id, err := st.Add(geo.CellID(head&3), int(head>>2&3), eidList(members), nil)
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			steps = append(steps, len(scenarios))
			scenarios = append(scenarios, &scenario.EScenario{ID: id, EIDs: members})
		}
		p, err := New(universe[:n])
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		p.BindStore(st)
		ref := newAllLeaves(t, universe[:n])
		var got, want []ids.EID
		p.OnResolve(func(i int) { got = append(got, p.Targets()[i]) })
		ref.OnResolve(func(i int) { want = append(want, ref.Targets()[i]) })
		for step, k := range steps {
			s := scenarios[k]
			if g, w := p.SplitView(s.ID, st.View(s.ID)), ref.SplitBy(s); g != w {
				t.Fatalf("step %d (scenario %d): SplitView = %v, reference %v", step, k, g, w)
			}
			label := fmt.Sprintf("step %d (scenario %d)", step, k)
			compareWithReference(t, label, p, ref, got, want)
			checkLive(t, label, p, st, ref.live())
		}
	})
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
