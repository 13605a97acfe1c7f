package blocking

import (
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// LiveTargets is the exact set of still-undistinguished target EIDs of one
// split run — the one live tracker of both front-ends. Wire Resolve to
// partition.OnResolve: leaves only ever shrink, so a resolved EID never
// becomes live again and the set only shrinks. The batch matcher hands it to
// Index.Candidates a window at a time; the stream, whose scenarios arrive as
// windows seal and have no store-wide index to consult, asks Prunes about
// each one. Both apply the same rule: a scenario can only split a partition
// leaf if a live target appears in it inclusively. Restore rebuilds this
// state deterministically by replaying the checkpointed scenarios through
// the same probe, with no checkpoint fields of its own. Not safe for
// concurrent use — one per split run over one store, like the partition it
// mirrors.
type LiveTargets struct {
	// live maps each live target to its ordinal in the store of the Index
	// asking (unresolved until Candidates first meets it), so a split run
	// hashes each target once and then reads posting arrays.
	live map[ids.EID]int32
}

// NewLiveTargets builds the tracker for a fresh partition over targets. A
// lone target's partition is born resolved, so the set starts (and stays)
// empty and every scenario prunes — matching the exhaustive path, which
// breaks out before applying any.
func NewLiveTargets(targets []ids.EID) *LiveTargets {
	lt := &LiveTargets{live: make(map[ids.EID]int32, len(targets))}
	if len(targets) < 2 {
		return lt
	}
	for _, e := range targets {
		lt.live[e] = unresolved
	}
	return lt
}

const unresolved int32 = -1

// Resolve removes e from the live set. Wire to partition.OnResolve.
func (lt *LiveTargets) Resolve(e ids.EID) { delete(lt.live, e) }

// NumLive returns how many targets are still undistinguished; a nil tracker
// has none.
func (lt *LiveTargets) NumLive() int {
	if lt == nil {
		return 0
	}
	return len(lt.live)
}

// Prunes reports whether s provably cannot change the partition: no live
// target appears in it inclusively. SplitBy's effectiveness test requires an
// inclusive member of a leaf with ≥2 inclusive EIDs, every such member is
// live, and leaf membership is a subset of the targets — so a true result is
// an exact no-op, skippable without recording. The probe iterates whichever
// side is smaller; nil trackers and nil scenarios trivially prune.
func (lt *LiveTargets) Prunes(s *scenario.EScenario) bool {
	if lt == nil || s == nil || len(lt.live) == 0 {
		return true
	}
	if len(lt.live) <= len(s.EIDs) {
		//evlint:ignore maprange pure existence probe; any order finds the same answer
		for e := range lt.live {
			if s.Inclusive(e) {
				return false
			}
		}
		return true
	}
	//evlint:ignore maprange pure existence probe; any order finds the same answer
	for e, a := range s.EIDs {
		if a != scenario.AttrInclusive {
			continue
		}
		if _, live := lt.live[e]; live {
			return false
		}
	}
	return true
}
