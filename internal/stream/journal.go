package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"evmatching/internal/scenario"
)

// ErrBadShardReply reports a shard emission the merge stage will not fold: a
// round out of sequence, or a closure whose references do not name V
// observations of its own (window, cell) in the shard's journal. It is
// sticky — a shard's state is a pure function of the journal, so a reply
// that disagrees with the journal is a corrupt (or hostile) runner, and
// replaying the journal at it again would only loop.
var ErrBadShardReply = errors.New("stream: bad shard reply")

// shardJournal is one shard's replay journal, and the one owner of that
// shard's V pixels on the router side: every message sent to the shard, in
// position order, from the oldest window the merge stage has not folded yet.
// Three parties read it. A replacement incarnation replays it into a fresh
// windower (retained). The merge stage rebuilds a sealed closure's detections
// from the positions the shard replied with (resolve), then drops what a
// folded round made history (compact) — so between folds the journal is
// exactly the shard's open-window state, which is what Router.Checkpoint
// images. Its bound is therefore the observations of still-open windows plus
// those of rounds not folded yet — what the shard's open buckets hold, which
// keep redelivered observations too until their window folds.
//
// The shard never sees a pixel: the wire carries none, its windower reads
// none, and its reply names detections by position, in arrival order, repeats
// included. resolve turns positions back into detections and the fold behind
// it orders and deduplicates them, so a runner is trusted for nothing but
// positions — and each of those is checked against the journal.
//
// It has its own lock because the merge stage must never take Router.mu —
// Checkpoint and Flush hold that across the fold barrier.
type shardJournal struct {
	mu   sync.Mutex
	msgs []ShardMsg // ascending Pos, with gaps where compact dropped
}

func (j *shardJournal) append(m ShardMsg) {
	j.mu.Lock()
	j.msgs = append(j.msgs, m)
	j.mu.Unlock()
}

func (j *shardJournal) len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.msgs)
}

// retained returns a copy of the journal.
func (j *shardJournal) retained() []ShardMsg {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]ShardMsg(nil), j.msgs...)
}

// resolve rebuilds the detections of every closure of one emission of the
// given shard from the journalled observations its Refs name, sharing the
// ingest caller's pixel slices exactly as the inline Engine does. Whatever
// Dets the emission arrived with are overwritten — an in-process closure's
// are equal by construction, and a runner is never trusted for pixels. A
// closure of a window the round does not close (floor is the shard's previous
// target) or a cell the shard does not own, and a reference that is not in
// the journal (out of range, or already compacted), names anything but a V
// observation of the closure's own (window, cell), or repeats, is
// ErrBadShardReply; nothing of the emission is then used.
func (j *shardJournal) resolve(out *ShardOut, shard, shards, floor int, windowMS int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	seen := make(map[int64]struct{})
	for i := range out.Sealed {
		s := &out.Sealed[i]
		if s.Window < floor || s.Window >= out.Target || s.Cell < 0 || ShardOf(s.Cell, shards) != shard {
			return fmt.Errorf("%w: shard %d round %d (windows %d to %d) sealed window %d cell %d",
				ErrBadShardReply, shard, out.Round, floor, out.Target, s.Window, s.Cell)
		}
		s.Dets = nil
		if len(s.Refs) == 0 {
			continue
		}
		if len(s.Refs) > len(j.msgs) {
			return fmt.Errorf("%w: shard %d window %d cell %d: %d references into a journal of %d",
				ErrBadShardReply, shard, s.Window, s.Cell, len(s.Refs), len(j.msgs))
		}
		dets := make([]scenario.Detection, len(s.Refs))
		for k, pos := range s.Refs {
			at := sort.Search(len(j.msgs), func(i int) bool { return j.msgs[i].Pos >= pos })
			if at == len(j.msgs) || j.msgs[at].Pos != pos {
				return fmt.Errorf("%w: shard %d window %d cell %d: position %d is not in the journal",
					ErrBadShardReply, shard, s.Window, s.Cell, pos)
			}
			m := &j.msgs[at]
			if m.Kind != ShardMsgObs || m.Obs.Kind != KindV || m.Obs.Cell != s.Cell || int(m.Obs.TS/windowMS) != s.Window {
				return fmt.Errorf("%w: shard %d window %d cell %d: position %d is not a V observation of that bucket",
					ErrBadShardReply, shard, s.Window, s.Cell, pos)
			}
			if _, dup := seen[pos]; dup {
				return fmt.Errorf("%w: shard %d window %d cell %d: position %d referenced twice",
					ErrBadShardReply, shard, s.Window, s.Cell, pos)
			}
			seen[pos] = struct{}{}
			dets[k] = scenario.Detection{VID: m.Obs.VID, Patch: *m.Obs.Patch, TruePerson: m.Obs.Person}
		}
		s.Dets = dets
	}
	return nil
}

// compact drops what folding a round made history: every observation of a
// window below its target and every close message up to it. What is left is
// what a fresh windower needs to stand where the shard stands.
func (j *shardJournal) compact(round, target int, windowMS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := j.msgs[:0]
	for _, m := range j.msgs {
		if m.Kind == ShardMsgClose && m.Round <= round || m.Kind == ShardMsgObs && int(m.Obs.TS/windowMS) < target {
			continue
		}
		kept = append(kept, m)
	}
	clear(j.msgs[len(kept):]) // let go of the dropped patches
	j.msgs = kept
}
