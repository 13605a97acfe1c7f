package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"evmatching/internal/core"
	"evmatching/internal/geo"
	"evmatching/internal/vfilter"
)

// ErrRouterClosed reports use of a router after Close.
var ErrRouterClosed = errors.New("stream: router closed")

// shardQueueLen is the per-shard input channel capacity past a
// replacement's journal replay: how far ingest runs ahead of a shard before
// sendLocked waits for it.
const shardQueueLen = 1024

// RouterConfig parameterizes a Router. The embedded Config is the matching
// configuration every shard and the merge stage share.
type RouterConfig struct {
	Config

	// Shards is the number of region shards observations partition across
	// (0 = 1). The assignment is ShardOf: cell modulo shard count.
	Shards int
	// Faults, when non-nil, injects shard faults (tests only). The plan is
	// applied by RunShardInProcess, the loop every in-process shard runs.
	Faults ShardFaultPlan
	// Runner runs the shard incarnations; nil means RunShardInProcess, one
	// goroutine per shard in this process. internal/shardrpc's supervisor
	// plugs in here to host shards in worker processes. Mutually exclusive
	// with Faults (cross-process chaos kills real processes instead).
	Runner ShardRunner
}

// withDefaults returns a copy with the router knobs defaulted.
func (c RouterConfig) withDefaults() RouterConfig {
	c.Config = c.Config.withDefaults()
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// validate reports whether the (defaulted) router config is usable.
func (c RouterConfig) validate() error {
	if err := c.Config.validate(); err != nil {
		return err
	}
	if c.Shards < 1 {
		return fmt.Errorf("%w: %d shards", ErrBadConfig, c.Shards)
	}
	if c.Runner != nil && c.Faults != nil {
		return fmt.Errorf("%w: Runner and Faults are mutually exclusive", ErrBadConfig)
	}
	return nil
}

// ShardOf is the stable cell → shard assignment: the cell's residue modulo
// the shard count. It depends on nothing but its arguments, so any router —
// or any node in a future multi-process deployment — routes a cell
// identically, and a checkpoint written under one shard count redistributes
// cleanly under another.
func ShardOf(cell geo.CellID, shards int) int {
	return int(cell % geo.CellID(shards))
}

// ShardMsgKind tags a message on a shard's input channel.
type ShardMsgKind uint8

const (
	ShardMsgObs ShardMsgKind = iota + 1
	ShardMsgClose
)

// ShardMsg is one journalled message to a shard windower. Pos is the
// router-assigned position in the shard's message sequence — never reused,
// never renumbered — and the name a shard's reply calls an observation by.
// The fields are exported because ShardMsg is also the wire unit of the
// cross-process shard protocol (internal/shardrpc): the router journals
// exactly what it sends, so replay after a worker death retransmits identical
// bytes.
type ShardMsg struct {
	Pos    int64
	Kind   ShardMsgKind
	Obs    Observation // ShardMsgObs
	Round  int         // ShardMsgClose
	Target int         // ShardMsgClose: close windows < target
	MaxTS  int64       // ShardMsgClose: router watermark state at issue time
}

// shardOut is one shard's emission on the shared shard → merger channel.
type shardOut struct {
	shard int
	ShardOut
}

// shardSlot is the router-side state of one shard: its current incarnation's
// channels plus the replay journal that makes the shard's state
// reconstructible after a death.
type shardSlot struct {
	id          int
	incarnation int
	in          chan ShardMsg
	stop        chan struct{}
	died        chan struct{} // closed by the incarnation's Died(nil)

	sent    int64 // position of the last journalled message
	journal shardJournal
}

// Router is the sharded streaming ingest tier: the same frontier the Engine
// holds decides admission and close targets, observations partition by cell
// across N shard windowers (ShardOf), each shard seals its windows when the
// router's close round tells it to, and a merge stage folds the sealed
// closures — in ascending (window, cell) order across all shards — into a
// single global Engine through the fold the Engine runs inline. The router's
// Finalize fingerprint is therefore bit-identical to the unsharded stream
// replay and to the batch SS run (the shard-invariance tests pin this).
//
// A shard's runner is its failure detector: every way an incarnation stops
// is the router stopping it or something its runner sees and reports
// (ShardRun.Died). A death is handed to a fresh incarnation that replays the
// shard's journal — which the merge stage keeps cut down to the windows it
// has not folded yet — and replayed emissions are deduplicated by round, so
// a death never loses or duplicates a window closure. A refused message
// fails the stream instead (ErrShardFailed): replay would refuse it again.
//
// The router is safe for concurrent use.
type Router struct {
	cfg    RouterConfig
	merged *Engine

	mu           sync.Mutex
	closed       bool
	slots        []shardSlot
	front        frontier
	round        int // close rounds issued
	redispatches int64

	// deaths is the doorbell Died rings (capacity 1): a report is waiting
	// on some slot's died channel or in firstErr.
	deaths chan struct{}
	// folded is the doorbell the merge stage rings (capacity 1) when
	// foldedRound advances or firstErr is set: the fold barrier's wake-up.
	folded chan struct{}

	out        chan shardOut
	wg         sync.WaitGroup
	mergerDone chan struct{}
	closeOnce  sync.Once

	foldMu      sync.Mutex
	foldedRound int
	firstErr    error

	kills atomic.Int64
}

// RouterStats is a snapshot of the router's fault-handling counters.
type RouterStats struct {
	// Shards is the configured shard count.
	Shards int
	// Redispatches counts shard takeovers: an incarnation whose runner
	// reported its death handed to a fresh one replaying its journal.
	Redispatches int64
	// Kills counts injected shard-kill faults taken (tests only).
	Kills int64
	// JournalLen is each shard's replay journal length now — the messages a
	// replacement incarnation would be sent: the observations of the windows
	// the merge stage has not folded yet.
	JournalLen []int
}

// NewRouter creates a sharded router with empty state and starts its shard
// windowers and merge stage. Callers must Close it to join the goroutines.
func NewRouter(cfg RouterConfig) (*Router, error) {
	return newRouter(cfg, nil)
}

// newRouter builds a router, optionally resumed from a decoded checkpoint.
func newRouter(cfg RouterConfig, cp *checkpointFile) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The merge stage reuses the unsharded engine wholesale.
	merged, err := NewEngine(cfg.Config)
	if err != nil {
		return nil, err
	}
	cfg.Targets = merged.cfg.Targets // sorted copy
	r := &Router{
		cfg:        cfg,
		merged:     merged,
		slots:      make([]shardSlot, cfg.Shards),
		front:      newFrontier(cfg.WindowMS, cfg.LatenessMS),
		deaths:     make(chan struct{}, 1),
		folded:     make(chan struct{}, 1),
		out:        make(chan shardOut, 4*cfg.Shards),
		mergerDone: make(chan struct{}),
	}
	if cp != nil {
		if err := r.restoreCheckpoint(cp); err != nil {
			return nil, err
		}
	}
	for s := range r.slots {
		slot := &r.slots[s]
		slot.id = s
		slot.incarnation = 1
		r.startIncarnationLocked(slot)
	}
	go r.runMerger()
	return r, nil
}

// restoreCheckpoint resumes from a decoded checkpoint: the merge stage's
// scenarios and resolutions, the router's frontier, and the open buckets —
// re-journalled, observation by observation, for the shard ShardOf gives
// each, so an image written under any shard count (or by an Engine) restores
// under this one and a shard learns restored state the way it learns any
// other. The frontier is bypassed: its counters come from the header. It runs
// before any incarnation starts; their first act is to replay the journal.
func (r *Router) restoreCheckpoint(cp *checkpointFile) error {
	if err := r.merged.restoreMatchState(cp); err != nil {
		return err
	}
	r.front.restore(cp)
	for i := range cp.Buckets {
		cb := &cp.Buckets[i]
		if cb.Cell < 0 {
			return fmt.Errorf("%w: open bucket window %d cell %d", ErrBadCheckpoint, cb.Window, cb.Cell)
		}
		slot := &r.slots[ShardOf(cb.Cell, r.cfg.Shards)]
		var bad error
		bucketObservations(cb, r.cfg.WindowMS, func(o Observation) {
			if err := o.Validate(); err != nil {
				bad = err
			} else if o.TS/r.cfg.WindowMS != int64(cb.Window) {
				bad = fmt.Errorf("%w: window overflows the timestamp range", ErrBadObservation)
			}
			r.journalLocked(slot, ShardMsg{Kind: ShardMsgObs, Obs: o})
		})
		if bad != nil {
			return fmt.Errorf("%w: open bucket window %d cell %d: %w", ErrBadCheckpoint, cb.Window, cb.Cell, bad)
		}
	}
	return nil
}

// Ingest consumes one observation: validation and the frontier's late-drop
// decision happen here, so sharding never changes which observations are
// accepted; then the observation is journalled and routed to its cell's
// shard. When it advances the watermark past a window boundary, a close
// round is broadcast to every shard.
func (r *Router) Ingest(o Observation) (bool, error) {
	if err := o.Validate(); err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, ErrRouterClosed
	}
	if err := r.errState(); err != nil {
		return false, err
	}
	r.reapLocked()
	if !r.front.admit(o.TS) {
		return false, nil
	}
	r.sendLocked(&r.slots[ShardOf(o.Cell, r.cfg.Shards)], ShardMsg{Kind: ShardMsgObs, Obs: o})
	if target, closes := r.front.observe(o.TS); closes {
		r.issueCloseLocked(target)
	}
	return true, nil
}

// journalLocked gives m the shard's next position and journals it. Callers
// hold r.mu.
func (r *Router) journalLocked(s *shardSlot, m ShardMsg) ShardMsg {
	s.sent++
	m.Pos = s.sent
	s.journal.append(m)
	return m
}

// sendLocked journals m for the shard and delivers it to the current
// incarnation. A full queue waits for the shard to take m or for a runner to
// report a death, which is acted on at once: a dead shard anywhere may be
// what holds this one's queue full, since the merge stage folds no round
// without it. If this shard is the one replaced, the replacement's journal
// replay has delivered m; if the stream has failed, nothing will drain a
// refused shard's queue, and the caller's next call returns the error.
// Callers hold r.mu.
func (r *Router) sendLocked(s *shardSlot, m ShardMsg) {
	m = r.journalLocked(s, m)
	for {
		cur := s.in
		select {
		case cur <- m:
			return
		default:
		}
		if r.errState() != nil {
			return
		}
		select {
		case cur <- m:
			return
		case <-r.deaths:
			ring(r.deaths) // leave the report for reapLocked
		}
		r.reapLocked()
		if s.in != cur {
			return // redispatched: the journal replay delivered m
		}
	}
}

// issueCloseLocked broadcasts one close round: every shard seals its buckets
// with window < target and emits them to the merge stage. Rounds are the
// unit of merge ordering — the merger folds a round only once all shards
// have reported it. Callers hold r.mu; target must be >= the frontier's
// close point.
func (r *Router) issueCloseLocked(target int) {
	r.round++
	r.front.closeBelow(target)
	m := ShardMsg{Kind: ShardMsgClose, Round: r.round, Target: target, MaxTS: r.front.maxTS}
	for i := range r.slots {
		r.sendLocked(&r.slots[i], m)
	}
}

// ring rings a one-slot doorbell without blocking: one token stands for any
// number of rings.
func ring(bell chan<- struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// reapLocked acts on the deaths runners reported since the last reap: each
// shard whose incarnation reported one is handed to a replacement — unless
// the stream has failed, when a replay could only be refused again. Callers
// hold r.mu.
func (r *Router) reapLocked() {
	select {
	case <-r.deaths:
	default:
		return
	}
	if r.errState() != nil {
		return
	}
	for i := range r.slots {
		select {
		case <-r.slots[i].died:
			r.redispatchLocked(&r.slots[i])
		default:
		}
	}
}

// redispatchLocked replaces a dead shard: the old incarnation is stopped, so
// whatever it still emits or reports is ignored, and a replacement starts
// from nothing but the journal. The replay re-emits any rounds the dead
// incarnation already reported and the merge stage has not folded; the merger
// drops them by round number, which is sound because replay is deterministic
// — a re-emitted round is identical to the original. Callers hold r.mu.
func (r *Router) redispatchLocked(slot *shardSlot) {
	close(slot.stop)
	slot.incarnation++
	r.redispatches++
	r.startIncarnationLocked(slot)
}

// shardParams is the windowing configuration every shard windower runs: the
// merge stage's.
func (r *Router) shardParams() ShardParams { return r.merged.shardParams() }

// startIncarnationLocked launches the slot's current incarnation — the first
// or a replacement, there is no difference — on the configured runner, which
// may host the shard anywhere it likes (internal/shardrpc proxies it to a
// worker process), or on RunShardInProcess when none is configured, and
// queues the journal for it: the whole of what a fresh windower needs to
// stand where the shard stands. Callers hold r.mu (newRouter calls before the
// router escapes).
func (r *Router) startIncarnationLocked(slot *shardSlot) {
	replay := slot.journal.retained()
	// Capacity covers the whole replay, so these sends cannot block even if
	// the incarnation is itself killed mid-replay.
	slot.in = make(chan ShardMsg, len(replay)+shardQueueLen)
	for _, m := range replay {
		slot.in <- m
	}
	slot.stop, slot.died = make(chan struct{}), make(chan struct{})
	shard, inc, stop, died := slot.id, slot.incarnation, slot.stop, slot.died
	var report sync.Once
	run := ShardRun{
		Shard:       shard,
		Incarnation: inc,
		Params:      r.shardParams(),
		In:          slot.in,
		Stop:        stop,
		Emit: func(o ShardOut) bool {
			// Abandoned if the incarnation is stopped first: the
			// replacement re-emits it from replay.
			select {
			case r.out <- shardOut{shard: shard, ShardOut: o}:
				return true
			case <-stop:
				return false
			}
		},
		Died: func(refusal error) {
			select {
			case <-stop:
				return // the router stopped it: nothing to report
			default:
			}
			report.Do(func() {
				if refusal != nil {
					r.setErr(fmt.Errorf("%w: shard %d incarnation %d: %w", ErrShardFailed, shard, inc, refusal))
				} else {
					close(died)
				}
				ring(r.deaths)
			})
		},
		faults: r.cfg.Faults,
		kills:  &r.kills,
	}
	runOn := RunShardInProcess
	if r.cfg.Runner != nil {
		runOn = r.cfg.Runner.RunShard
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		runOn(run)
	}()
}

// runMerger is the merge stage: it collects each round's batches from all
// shards, resolves their references against the shards' journals,
// concatenates and re-sorts them into global ascending (window, cell) order —
// per-shard batches are already sorted, and shards partition cells, so this
// reproduces exactly the close order the unsharded engine uses — and folds
// them into the merged engine, then compacts the journals below the folded
// target. Rounds fold strictly in issue order; duplicate emissions from
// redispatch replays are dropped by round number before anything of them is
// looked at. It never takes r.mu.
func (r *Router) runMerger() {
	defer close(r.mergerDone)
	shards := r.cfg.Shards
	type roundBatch struct {
		have    int
		batches [][]ShardSealed
		target  int
	}
	nextRound := 1
	pending := make(map[int]*roundBatch)
	lastRound, lastTarget := make([]int, shards), make([]int, shards)
	for m := range r.out {
		if m.Round <= lastRound[m.shard] {
			continue // duplicate from a redispatch replay
		}
		if m.Round != lastRound[m.shard]+1 {
			r.setErr(fmt.Errorf("%w: shard %d jumped from round %d to %d", ErrBadShardReply, m.shard, lastRound[m.shard], m.Round))
			continue
		}
		if err := r.slots[m.shard].journal.resolve(&m.ShardOut, m.shard, shards, lastTarget[m.shard], r.cfg.WindowMS); err != nil {
			r.setErr(err)
			continue
		}
		lastRound[m.shard], lastTarget[m.shard] = m.Round, m.Target
		rb := pending[m.Round]
		if rb == nil {
			rb = &roundBatch{batches: make([][]ShardSealed, shards)}
			pending[m.Round] = rb
		}
		rb.batches[m.shard] = m.Sealed
		rb.target = m.Target
		rb.have++
		for {
			ready := pending[nextRound]
			if ready == nil || ready.have < shards {
				break
			}
			delete(pending, nextRound)
			r.fold(ready.batches, ready.target)
			for s := range r.slots {
				r.slots[s].journal.compact(nextRound, ready.target, r.cfg.WindowMS)
			}
			r.foldMu.Lock()
			r.foldedRound = nextRound
			r.foldMu.Unlock()
			ring(r.folded)
			nextRound++
		}
	}
}

// fold merges one complete round into the global engine.
func (r *Router) fold(batches [][]ShardSealed, target int) {
	if r.errState() != nil {
		return // poisoned: keep draining so shards never block, but stop folding
	}
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	all := make([]ShardSealed, 0, n)
	for _, b := range batches {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Window != all[j].Window {
			return all[i].Window < all[j].Window
		}
		return all[i].Cell < all[j].Cell
	})
	if err := r.merged.applyRound(all, target); err != nil {
		r.setErr(err)
	}
}

// setErr records the first error; later operations return it, and a fold
// barrier waiting meanwhile wakes to return it.
func (r *Router) setErr(err error) {
	r.foldMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.foldMu.Unlock()
	ring(r.folded)
}

// errState returns the sticky first error, if any.
func (r *Router) errState() error {
	r.foldMu.Lock()
	defer r.foldMu.Unlock()
	return r.firstErr
}

// progress reads the merge stage's fold cursor.
func (r *Router) progress() (round int, err error) {
	r.foldMu.Lock()
	defer r.foldMu.Unlock()
	return r.foldedRound, r.firstErr
}

// awaitFoldLocked blocks until the merge stage has folded every round issued
// so far, acting on reported deaths while it waits so a dead shard cannot
// stall the barrier: its replacement re-emits the missing batch. It wakes on
// the folded doorbell (a fold or a sticky error), the deaths doorbell, or the
// merge stage's exit. Callers hold r.mu; it is let go for each wait (the
// shards and the merger it waits on never take it), so a round an ingest
// slips in meanwhile is waited for too, and it is held again on return:
// nothing is then in flight.
//
// Every waiter tests the same condition against the same cursor, but one
// fold rings the doorbell once: a waiter that returns re-rings it so a
// concurrent one (Checkpoint beside Flush, say) wakes and retests too. A
// waiter that takes a token and finds its round unfolded leaves none behind,
// which is sound: no waiter's round has folded either, and the fold still due
// rings again.
func (r *Router) awaitFoldLocked() error {
	defer ring(r.folded)
	//evlint:ignore lockbalance condition-wait loop: drops the caller-held r.mu across each wait and reacquires before retesting, net-neutral per iteration
	for {
		if r.closed { // by a Close that took r.mu during a wait
			return ErrRouterClosed
		}
		folded, err := r.progress()
		if err != nil {
			return err
		}
		if folded >= r.round {
			return nil
		}
		r.reapLocked()
		//evlint:ignore lockbalance releases the caller-held r.mu for the wait; reacquired below
		r.mu.Unlock()
		select {
		case <-r.folded:
		case <-r.deaths:
			ring(r.deaths) // leave the report for reapLocked
		case <-r.mergerDone: // only after Close, which the retest sees
		}
		r.mu.Lock()
	}
}

// Flush closes every open bucket regardless of the watermark — the
// end-of-log signal — waits for the merge stage to fold the closure, and
// returns once the final resolution sweep has run, mirroring Engine.Flush.
func (r *Router) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRouterClosed
	}
	if err := r.errState(); err != nil {
		return err
	}
	r.issueCloseLocked(r.front.flushTarget())
	return r.awaitFoldLocked()
}

// Finalize flushes the stream and runs the authoritative batch match over
// the merged store — Engine.Finalize on the merge stage's engine, including
// its divergence cross-check. The returned report's Fingerprint equals both
// the unsharded stream replay's and the batch SS fingerprint.
func (r *Router) Finalize(ctx context.Context) (*core.Report, error) {
	if err := r.Flush(); err != nil {
		return nil, err
	}
	return r.merged.Finalize(ctx)
}

// Close stops every shard windower and the merge stage and joins them. It
// is idempotent; the router is unusable afterwards.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		for i := range r.slots {
			close(r.slots[i].stop)
		}
		r.mu.Unlock()
		r.wg.Wait()
		close(r.out)
		<-r.mergerDone
	})
	return nil
}

// Subscribe returns the resolutions emitted so far plus a channel of future
// ones, delegating to the merged engine. The returned cancel must be called
// once.
func (r *Router) Subscribe() (backlog []Resolution, ch <-chan Resolution, cancel func()) {
	return r.merged.Subscribe()
}

// Resolutions returns a copy of every resolution emitted so far.
func (r *Router) Resolutions() []Resolution {
	return r.merged.Resolutions()
}

// Ingested returns how many observations Ingest has consumed (accepted or
// dropped) — the resume offset a restored consumer skips to in the log.
func (r *Router) Ingested() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.front.ingested
}

// LateDropped returns how many observations arrived after their window
// closed and were dropped.
func (r *Router) LateDropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.front.lateDropped
}

// OpenWindows returns how many distinct windows currently have open buckets.
func (r *Router) OpenWindows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.front.open)
}

// Watermark returns the current event-time watermark and whether any event
// has been observed yet.
func (r *Router) Watermark() (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.front.watermark()
}

// FilterStats returns the merge stage's V filter counters (Engine.FilterStats).
func (r *Router) FilterStats() vfilter.Stats {
	return r.merged.FilterStats()
}

// Stats snapshots the router's fault-handling counters.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	red := r.redispatches
	r.mu.Unlock()
	journals := make([]int, len(r.slots))
	for i := range r.slots {
		journals[i] = r.slots[i].journal.len()
	}
	return RouterStats{
		Shards:       r.cfg.Shards,
		Redispatches: red,
		Kills:        r.kills.Load(),
		JournalLen:   journals,
	}
}
