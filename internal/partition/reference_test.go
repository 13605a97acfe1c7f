package partition

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

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
	leaves []*Node
}

func newAllLeaves(t *testing.T, targets []ids.EID) *allLeaves {
	t.Helper()
	p, err := New(targets)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &allLeaves{Partition: p, leaves: []*Node{p.root}}
}

func (r *allLeaves) SplitBy(s *scenario.EScenario) bool {
	r.clearMasks()
	for e, attr := range s.EIDs {
		if i, ok := r.idx.pos[e]; ok {
			r.mark(int32(i), attr)
		}
	}
	changed := false
	var next []*Node
	for _, leaf := range r.leaves {
		if r.split(leaf, s.ID) {
			next = append(next, leaf.Left, leaf.Right)
			changed = true
		} else {
			next = append(next, leaf)
		}
	}
	r.leaves = next
	if changed {
		r.record(s.ID)
	}
	return changed
}

func (r *allLeaves) NumSets() int { return len(r.leaves) }

func (r *allLeaves) Done() bool {
	for _, leaf := range r.leaves {
		if leaf.inc.Count() > 1 {
			return false
		}
	}
	return true
}

func (r *allLeaves) Sets() [][]ids.EID {
	out := make([][]ids.EID, 0, len(r.leaves))
	for _, leaf := range r.leaves {
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
// observable after every step.
func TestSplitByMatchesAllLeavesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for world := 0; world < 300; world++ {
		targets, scenarios := refWorld(rng)
		p, err := New(targets)
		if err != nil {
			t.Fatalf("world %d: New: %v", world, err)
		}
		ref := newAllLeaves(t, targets)
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
			for _, e := range targets {
				g, gerr := p.PositiveScenarios(e)
				w, werr := ref.PositiveScenarios(e)
				if gerr != nil || werr != nil || !reflect.DeepEqual(g, w) {
					t.Fatalf("world %d step %d: PositiveScenarios(%s) = %v (%v), reference %v (%v)",
						world, step, e, g, gerr, w, werr)
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
		}
		if p.Done() != (len(got) == p.NumTargets() || p.NumTargets() == 1) {
			t.Fatalf("world %d: Done = %v with %d of %d targets resolved", world, p.Done(), len(got), p.NumTargets())
		}
	}
}
