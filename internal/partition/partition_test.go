package partition

import (
	"math/rand"
	"testing"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// esc builds an E-Scenario with the given ID whose EIDs are all inclusive.
func esc(id scenario.ID, eids ...ids.EID) *scenario.EScenario {
	m := make(map[ids.EID]scenario.Attr, len(eids))
	for _, e := range eids {
		m[e] = scenario.AttrInclusive
	}
	return &scenario.EScenario{ID: id, EIDs: m}
}

// escAttr builds an E-Scenario with explicit attributes.
func escAttr(id scenario.ID, m map[ids.EID]scenario.Attr) *scenario.EScenario {
	return &scenario.EScenario{ID: id, EIDs: m}
}

func mustNew(t *testing.T, targets ...ids.EID) *Partition {
	t.Helper()
	p, err := New(targets)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("want error for no targets")
	}
	if _, err := New([]ids.EID{"a", ids.None}); err == nil {
		t.Error("want error for empty EID target")
	}
}

func TestInitialState(t *testing.T) {
	p := mustNew(t, "a", "b", "c")
	if p.NumSets() != 1 || p.NumTargets() != 3 {
		t.Errorf("NumSets=%d NumTargets=%d", p.NumSets(), p.NumTargets())
	}
	if p.Done() {
		t.Error("3-EID partition should not start done")
	}
	sets := p.Sets()
	if len(sets) != 1 || len(sets[0]) != 3 {
		t.Errorf("Sets = %v", sets)
	}
	if got := len(p.Recorded()); got != 0 {
		t.Errorf("Recorded = %d scenarios before any split", got)
	}
}

func TestSingleTargetIsImmediatelyDone(t *testing.T) {
	p := mustNew(t, "only")
	if !p.Done() {
		t.Error("single-EID partition should be done")
	}
	pos, err := p.PositiveScenarios("only")
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 0 {
		t.Errorf("PositiveScenarios = %v", pos)
	}
}

func TestSplitBySeparates(t *testing.T) {
	p := mustNew(t, "a", "b", "c", "d")
	if !p.SplitBy(esc(10, "a", "b")) {
		t.Fatal("split {a,b} should be effective")
	}
	sets := p.Sets()
	if len(sets) != 2 {
		t.Fatalf("Sets = %v", sets)
	}
	if sets[0][0] != "a" || sets[0][1] != "b" || sets[1][0] != "c" || sets[1][1] != "d" {
		t.Errorf("Sets = %v", sets)
	}
	if got := p.Recorded(); len(got) != 1 || got[0] != 10 {
		t.Errorf("Recorded = %v", got)
	}
}

func TestSplitByIneffectiveSkipped(t *testing.T) {
	p := mustNew(t, "a", "b", "c")
	// Contains all of the set: no split (paper Remark).
	if p.SplitBy(esc(1, "a", "b", "c")) {
		t.Error("scenario with whole set should not split")
	}
	// Contains none of the set: no split.
	if p.SplitBy(esc(2, "x", "y")) {
		t.Error("scenario with no members should not split")
	}
	if len(p.Recorded()) != 0 {
		t.Errorf("ineffective scenarios recorded: %v", p.Recorded())
	}
}

func TestSplitToSingletons(t *testing.T) {
	p := mustNew(t, "a", "b", "c", "d")
	p.SplitBy(esc(1, "a", "b"))
	p.SplitBy(esc(2, "a", "c")) // splits {a,b} into {a},{b}; splits {c,d} into {c},{d}
	if !p.Done() {
		t.Fatalf("partition not done: %v", p.Sets())
	}
	if p.NumSets() != 4 {
		t.Errorf("NumSets = %d", p.NumSets())
	}
	// n-1 bound: 4 EIDs distinguished with 2 effective scenarios (< 3).
	if len(p.Recorded()) != 2 {
		t.Errorf("Recorded = %v", p.Recorded())
	}
}

func TestPositiveScenariosArePathLeftTurns(t *testing.T) {
	p := mustNew(t, "a", "b", "c", "d")
	p.SplitBy(esc(1, "a", "b"))
	p.SplitBy(esc(2, "a", "c"))
	want := map[ids.EID][]scenario.ID{
		"a": {1, 2},
		"b": {1},
		"c": {2},
		"d": nil,
	}
	for e, wantList := range want {
		got, err := p.PositiveScenarios(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantList) {
			t.Errorf("PositiveScenarios(%s) = %v, want %v", e, got, wantList)
			continue
		}
		for i := range wantList {
			if got[i] != wantList[i] {
				t.Errorf("PositiveScenarios(%s) = %v, want %v", e, got, wantList)
			}
		}
	}
	if _, err := p.PositiveScenarios("zz"); err == nil {
		t.Error("want ErrUnknownEID")
	}
}

func TestPostOrderRuleOutProperty(t *testing.T) {
	// Build a random world of scenarios; after splitting, matching EIDs in
	// PostOrder must let every EID's positive-scenario intersection contain
	// only itself and already-matched EIDs (Theorem 4.1).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		targets := make([]ids.EID, n)
		for i := range targets {
			targets[i] = ids.EID(string(rune('a' + i)))
		}
		p := mustNew(t, targets...)
		scenarios := make(map[scenario.ID]*scenario.EScenario)
		for sid := scenario.ID(0); sid < 200 && !p.Done(); sid++ {
			members := make([]ids.EID, 0, n)
			for _, e := range targets {
				if rng.Float64() < 0.3 {
					members = append(members, e)
				}
			}
			s := esc(sid, members...)
			scenarios[sid] = s
			p.SplitBy(s)
		}
		if !p.Done() {
			continue // unlucky trial; not the property under test
		}
		matched := map[ids.EID]bool{}
		for _, e := range p.PostOrder() {
			pos, err := p.PositiveScenarios(e)
			if err != nil {
				t.Fatal(err)
			}
			// Intersect the positive scenarios' member sets.
			inter := map[ids.EID]bool{}
			for _, other := range targets {
				inter[other] = true
			}
			for _, sid := range pos {
				s := scenarios[sid]
				for other := range inter {
					if !s.Contains(other) {
						delete(inter, other)
					}
				}
			}
			for other := range inter {
				if other != e && !matched[other] {
					t.Fatalf("trial %d: matching %s, intersection contains unmatched %s", trial, e, other)
				}
			}
			matched[e] = true
		}
		if len(matched) != n {
			t.Fatalf("trial %d: PostOrder covered %d of %d EIDs", trial, len(matched), n)
		}
	}
}

func TestPartitionInvariants(t *testing.T) {
	// Disjoint inclusive sets whose union is always the target set,
	// regardless of the scenario stream.
	rng := rand.New(rand.NewSource(7))
	targets := make([]ids.EID, 30)
	for i := range targets {
		targets[i] = ids.EID(rune('A' + i))
	}
	p := mustNew(t, targets...)
	for sid := scenario.ID(0); sid < 100; sid++ {
		members := make([]ids.EID, 0)
		for _, e := range targets {
			if rng.Float64() < 0.4 {
				members = append(members, e)
			}
		}
		p.SplitBy(esc(sid, members...))
		seen := map[ids.EID]bool{}
		for _, set := range p.Sets() {
			for _, e := range set {
				if seen[e] {
					t.Fatalf("EID %s appears in two sets", e)
				}
				seen[e] = true
			}
		}
		if len(seen) != len(targets) {
			t.Fatalf("after scenario %d: %d EIDs in partition, want %d", sid, len(seen), len(targets))
		}
	}
}

func TestEffectiveScenarioBoundIdeal(t *testing.T) {
	// Theorem 4.2: n-1 effective scenarios suffice for n EIDs.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		targets := make([]ids.EID, n)
		for i := range targets {
			targets[i] = ids.EID(rune('0' + i))
		}
		p := mustNew(t, targets...)
		for sid := scenario.ID(0); sid < 2000 && !p.Done(); sid++ {
			members := make([]ids.EID, 0)
			for _, e := range targets {
				if rng.Float64() < 0.5 {
					members = append(members, e)
				}
			}
			p.SplitBy(esc(sid, members...))
		}
		if got := len(p.Recorded()); got > n-1 {
			t.Errorf("trial %d: %d effective scenarios for %d EIDs, bound is %d", trial, got, n, n-1)
		}
	}
}

func TestVagueScenarioDoesNotConfirm(t *testing.T) {
	p := mustNew(t, "a", "b")
	// a is only vaguely in the scenario: must not be used to separate a.
	s := escAttr(1, map[ids.EID]scenario.Attr{"a": scenario.AttrVague})
	if p.SplitBy(s) {
		t.Error("vague-only scenario should not produce an effective split")
	}
	if p.Done() {
		t.Error("partition should remain unresolved")
	}
	// An inclusive sighting of a does split.
	if !p.SplitBy(esc(2, "a")) {
		t.Error("inclusive scenario should split")
	}
	if !p.Done() {
		t.Error("partition should be done")
	}
}

func TestVagueMemberDuplicatedBothSides(t *testing.T) {
	p := mustNew(t, "a", "b", "c")
	// b is vague in the scenario; a is inclusive. The split separates a;
	// b stays inclusive on the right with a vague copy on the left.
	s := escAttr(1, map[ids.EID]scenario.Attr{
		"a": scenario.AttrInclusive,
		"b": scenario.AttrVague,
	})
	if !p.SplitBy(s) {
		t.Fatal("split should be effective")
	}
	if got := p.root.Left.VagueEIDs(); len(got) != 1 || got[0] != "b" {
		t.Errorf("a's set has vague members %v, want [b]", got)
	}
	resolvedB, err := p.Resolved("b")
	if err != nil {
		t.Fatal(err)
	}
	if resolvedB {
		t.Error("b should remain unresolved with c")
	}
	resolvedA, err := p.Resolved("a")
	if err != nil {
		t.Fatal(err)
	}
	if !resolvedA {
		t.Error("a should be resolved")
	}
}

func TestUnresolved(t *testing.T) {
	p := mustNew(t, "a", "b", "c")
	p.SplitBy(esc(1, "a"))
	for e, want := range map[ids.EID]bool{"a": true, "b": false, "c": false} {
		got, err := p.Resolved(e)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Resolved(%s) = %v, want %v", e, got, want)
		}
	}
	if _, err := p.Resolved("zz"); err == nil {
		t.Error("want ErrUnknownEID")
	}
}

func TestRecordedNoDuplicates(t *testing.T) {
	p := mustNew(t, "a", "b", "c", "d")
	s := esc(5, "a", "b")
	p.SplitBy(s)
	p.SplitBy(s) // idempotent second application still changes nothing
	count := 0
	for _, id := range p.Recorded() {
		if id == 5 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("scenario 5 recorded %d times", count)
	}
}

func TestPostOrderCoversAllTargets(t *testing.T) {
	p := mustNew(t, "a", "b", "c", "d", "e")
	p.SplitBy(esc(1, "a", "b"))
	// Partially split: post-order must still cover every target exactly once.
	got := p.PostOrder()
	if len(got) != 5 {
		t.Fatalf("PostOrder = %v", got)
	}
	seen := map[ids.EID]bool{}
	for _, e := range got {
		if seen[e] {
			t.Fatalf("duplicate %s in PostOrder", e)
		}
		seen[e] = true
	}
}

func TestTreeStats(t *testing.T) {
	p := mustNew(t, "a", "b", "c", "d")
	p.SplitBy(esc(1, "a", "b"))
	p.SplitBy(esc(2, "a", "c"))
	st := p.TreeStats()
	if st.Targets != 4 || st.Leaves != 4 || st.Resolved != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.Recorded != 2 || st.BoundNm1 != 3 {
		t.Errorf("recorded/bound = %+v", st)
	}
	if st.Depth != 2 {
		t.Errorf("depth = %d, want 2", st.Depth)
	}
	if st.Recorded > st.BoundNm1 {
		t.Error("Theorem 4.2 bound violated")
	}
}
