package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// genWorld builds a random target set and scenario stream from a seed.
func genWorld(seed int64) ([]ids.EID, []*scenario.EScenario) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(16)
	targets := make([]ids.EID, n)
	for i := range targets {
		targets[i] = ids.EID(rune('a' + i))
	}
	numSc := 1 + rng.Intn(12)
	scenarios := make([]*scenario.EScenario, numSc)
	for s := range scenarios {
		members := make(map[ids.EID]scenario.Attr)
		for _, e := range targets {
			r := rng.Float64()
			switch {
			case r < 0.3:
				members[e] = scenario.AttrInclusive
			case r < 0.4:
				members[e] = scenario.AttrVague
			}
		}
		scenarios[s] = &scenario.EScenario{ID: scenario.ID(s), EIDs: members}
	}
	return targets, scenarios
}

// TestSplitOrderIndependence pins the property behind Algorithm 3's
// simultaneous refinement: applying a scenario set in any order yields the
// same partition (the common refinement).
func TestSplitOrderIndependence(t *testing.T) {
	f := func(seed int64, permSeed int64) bool {
		targets, scenarios := genWorld(seed)
		p1, err := New(append([]ids.EID(nil), targets...))
		if err != nil {
			return false
		}
		for _, s := range scenarios {
			p1.SplitBy(s)
		}
		p2, err := New(append([]ids.EID(nil), targets...))
		if err != nil {
			return false
		}
		perm := rand.New(rand.NewSource(permSeed)).Perm(len(scenarios))
		for _, i := range perm {
			p2.SplitBy(scenarios[i])
		}
		return reflect.DeepEqual(p1.Sets(), p2.Sets())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSplitIdempotence: re-applying the full scenario stream changes
// nothing — the partition is a fixed point of its own refinement.
func TestSplitIdempotence(t *testing.T) {
	f := func(seed int64) bool {
		targets, scenarios := genWorld(seed)
		p, err := New(targets)
		if err != nil {
			return false
		}
		for _, s := range scenarios {
			p.SplitBy(s)
		}
		before := p.Sets()
		changedAgain := false
		for _, s := range scenarios {
			if p.SplitBy(s) {
				changedAgain = true
			}
		}
		return !changedAgain && reflect.DeepEqual(before, p.Sets())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEveryEIDHasExactlyOneInclusiveHome is the invariant the practical
// semantics preserve whatever the vague sightings: every EID lies in exactly
// one set.
func TestEveryEIDHasExactlyOneInclusiveHome(t *testing.T) {
	f := func(seed int64) bool {
		targets, scenarios := genWorld(seed)
		p, err := New(targets)
		if err != nil {
			return false
		}
		for _, s := range scenarios {
			p.SplitBy(s)
			homes := map[ids.EID]int{}
			for _, set := range p.Sets() {
				for _, e := range set {
					homes[e]++
				}
			}
			if len(homes) != len(targets) {
				return false
			}
			for _, n := range homes {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRecordedScenariosAreSufficient: replaying only the recorded
// (effective) scenarios reproduces the final partition — the skipped ones
// truly contributed nothing (paper Remark).
func TestRecordedScenariosAreSufficient(t *testing.T) {
	f := func(seed int64) bool {
		targets, scenarios := genWorld(seed)
		p, err := New(append([]ids.EID(nil), targets...))
		if err != nil {
			return false
		}
		byID := map[scenario.ID]*scenario.EScenario{}
		for _, s := range scenarios {
			byID[s.ID] = s
			p.SplitBy(s)
		}
		replay, err := New(append([]ids.EID(nil), targets...))
		if err != nil {
			return false
		}
		for _, id := range p.Recorded() {
			replay.SplitBy(byID[id])
		}
		return reflect.DeepEqual(p.Sets(), replay.Sets())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAllPositiveScenariosMatchPerTarget: the one-walk lists are the
// per-target descents, after every step of a scenario stream — so on trees
// with unresolved leaves and vague sightings too — and on a maximally unbalanced
// tree, where every split sends all but one EID left.
func TestAllPositiveScenariosMatchPerTarget(t *testing.T) {
	check := func(t *testing.T, p *Partition) {
		t.Helper()
		all := p.AllPositiveScenarios()
		if len(all) != len(p.Targets()) {
			t.Fatalf("%d lists for %d targets", len(all), len(p.Targets()))
		}
		for i := range p.Targets() {
			if want := p.PositiveScenarios(i); !slices.Equal(all[i], want) {
				t.Fatalf("AllPositiveScenarios()[%d] = %v, PositiveScenarios(%d) = %v", i, all[i], i, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for world := 0; world < 200; world++ {
		targets, scenarios := genWorld(rng.Int63())
		if world%2 == 1 {
			targets, scenarios = refWorld(rng)
		}
		p, err := New(targets)
		if err != nil {
			t.Fatalf("world %d: New: %v", world, err)
		}
		check(t, p)
		for _, s := range scenarios {
			p.SplitBy(s)
			check(t, p)
		}
	}

	chain := make([]ids.EID, 200)
	for i := range chain {
		chain[i] = ids.EID(rune('a' + i))
	}
	p, err := New(chain)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		// chain[:i+1] goes left, so the walk's stack is as deep as the tree
		// when it reaches chain[0]; a vague sighting of the EID just split
		// away does not keep it on the left.
		members := map[ids.EID]scenario.Attr{chain[i+1]: scenario.AttrVague}
		for _, e := range chain[:i+1] {
			members[e] = scenario.AttrInclusive
		}
		p.SplitBy(&scenario.EScenario{ID: scenario.ID(i), EIDs: members})
	}
	if all := p.AllPositiveScenarios(); !p.Done() || len(all[0]) != len(chain)-1 {
		t.Fatalf("chain: done=%t, first target lists %d of %d scenarios", p.Done(), len(all[0]), len(chain)-1)
	}
	check(t, p)
}

func BenchmarkSplitBy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	targets := make([]ids.EID, 500)
	for i := range targets {
		targets[i] = ids.EID(rune(i))
	}
	scenarios := make([]*scenario.EScenario, 64)
	for s := range scenarios {
		members := make(map[ids.EID]scenario.Attr)
		for _, e := range targets {
			if rng.Float64() < 0.1 {
				members[e] = scenario.AttrInclusive
			}
		}
		scenarios[s] = &scenario.EScenario{ID: scenario.ID(s), EIDs: members}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(targets)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range scenarios {
			p.SplitBy(s)
			if p.Done() {
				break
			}
		}
	}
}
