package blocking

import (
	"evmatching/internal/bitset"
	"evmatching/internal/scenario"
)

// LiveTargets is the exact set of still-undistinguished targets of one
// split run, as their store ordinals — the one live tracker of both
// front-ends. Wire Resolve to partition.OnResolve: leaves only ever shrink,
// so a resolved EID never becomes live again and the set only shrinks. The
// batch matcher hands it to Index.Candidates a window at a time; the stream,
// whose scenarios arrive as windows seal and have no store-wide index to
// consult, asks Prunes about each one. Both apply the same rule: a scenario
// can only split a partition leaf if a live target appears in it
// inclusively. Restore rebuilds this state deterministically by replaying
// the checkpointed scenarios through the same probe, with no checkpoint
// fields of its own. Not safe for concurrent use — one per split run over
// one store, like the partition it mirrors.
type LiveTargets struct {
	ords bitset.Set // the live targets' ordinals
	n    int        // how many there are
}

// NewLiveTargets builds the tracker for a fresh partition over the targets
// whose store ordinals are ords. A lone target's partition is born resolved,
// so the set starts (and stays) empty and every scenario prunes — matching
// the exhaustive path, which breaks out before applying any.
func NewLiveTargets(ords []int32) *LiveTargets {
	lt := &LiveTargets{}
	top := int32(0)
	for _, o := range ords {
		top = max(top, o+1)
	}
	set := bitset.New(int(top))
	for _, o := range ords {
		if !set.Has(int(o)) {
			set.Add(int(o))
			lt.n++
		}
	}
	if lt.n < 2 {
		lt.n = 0
		return lt
	}
	lt.ords = set
	return lt
}

// Resolve removes the target with ordinal ord from the live set. Wire to
// partition.OnResolve through the partition's target ordinals.
func (lt *LiveTargets) Resolve(ord int32) {
	if lt.has(ord) {
		lt.ords.Remove(int(ord))
		lt.n--
	}
}

// has reports whether ordinal ord is a live target's.
func (lt *LiveTargets) has(ord int32) bool {
	return int(ord) < len(lt.ords)*64 && lt.ords.Has(int(ord))
}

// NumLive returns how many targets are still undistinguished; a nil tracker
// has none.
func (lt *LiveTargets) NumLive() int {
	if lt == nil {
		return 0
	}
	return lt.n
}

// Prunes reports whether the scenario read as store view v provably cannot
// change the partition: no live target appears in it inclusively.
// SplitView's effectiveness test requires an inclusive member of a leaf with
// ≥2 inclusive EIDs, every such member is live, and leaf membership is a
// subset of the targets — so a true result is an exact no-op, skippable
// without recording. A nil tracker prunes everything.
func (lt *LiveTargets) Prunes(v scenario.EView) bool {
	if lt.NumLive() == 0 {
		return true
	}
	for k, o := range v.Ords {
		if v.Attrs[k] == scenario.AttrInclusive && lt.has(o) {
			return false
		}
	}
	return true
}
