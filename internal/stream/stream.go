package stream

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/partition"
	"evmatching/internal/scenario"
	"evmatching/internal/spill"
	"evmatching/internal/vfilter"
)

// ErrBadConfig reports an invalid engine configuration.
var ErrBadConfig = errors.New("stream: invalid config")

// ErrDiverged reports that the incremental split disagrees with the batch
// reference — a bug surfaced rather than hidden, mirroring the MapReduce
// divergence check in core.
var ErrDiverged = errors.New("stream: incremental split diverged from batch reference")

// Config parameterizes an Engine. Matching runs at core.Options' defaults,
// so a stream replay and a batch run agree without tuning.
type Config struct {
	// Targets is the EID set to match. Required.
	Targets []ids.EID
	// WindowMS is the event-time window length in milliseconds. Required.
	WindowMS int64
	// LatenessMS is the allowed lateness: the watermark trails the maximum
	// observed timestamp by this much, so any observation at most this far
	// out of order still lands in its window. Observations older than the
	// watermark's closed windows are dropped and counted.
	LatenessMS int64
	// Dim is the feature descriptor dimensionality of V patches. Required.
	Dim int

	// MemBudget caps the bytes of resident sealed V-Scenario payloads.
	// Past it, closed-but-unmerged scenarios (and their extracted feature
	// matrices) are evicted oldest-sealed-first to a spill log and paged
	// back in transiently at match, checkpoint, and finalize time
	// (DESIGN.md §14). 0 disables the spill tier. The evicted path is
	// bit-identical to the resident one.
	MemBudget int64
	// SpillDir is where spill files live; empty means the OS temp
	// directory.
	SpillDir string

	// Clock feeds the watermark-lag gauge Gauges reads; event-time logic
	// never reads it. Defaults to SystemClock.
	Clock Clock
}

// withDefaults returns a copy with defaults applied.
func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = SystemClock{}
	}
	return c
}

// validate reports whether the (defaulted) config is usable.
func (c Config) validate() error {
	if len(c.Targets) == 0 {
		return fmt.Errorf("%w: no targets", ErrBadConfig)
	}
	if c.WindowMS <= 0 {
		return fmt.Errorf("%w: window %d ms", ErrBadConfig, c.WindowMS)
	}
	if c.LatenessMS < 0 {
		return fmt.Errorf("%w: lateness %d ms", ErrBadConfig, c.LatenessMS)
	}
	if c.Dim < 2 {
		return fmt.Errorf("%w: dim %d", ErrBadConfig, c.Dim)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("%w: mem budget %d", ErrBadConfig, c.MemBudget)
	}
	return nil
}

// Resolution is one early-emission match: an EID whose partition set became
// a singleton, matched over the scenarios closed so far. Resolutions are
// provisional — later windows can refine the evidence — and Finalize's batch
// verification run is the authoritative result.
type Resolution struct {
	// Seq numbers resolutions in emission order, starting at 1.
	Seq int     `json:"seq"`
	EID ids.EID `json:"eid"`
	VID ids.VID `json:"vid"`
	// Probability, MajorityFrac, RunnerUp, Margin and Acceptable carry the
	// vfilter.Result confidence fields.
	Probability  float64 `json:"probability"`
	MajorityFrac float64 `json:"majorityFrac"`
	RunnerUp     ids.VID `json:"runnerUp,omitempty"`
	Margin       float64 `json:"margin"`
	Acceptable   bool    `json:"acceptable"`
	// Window is the last window closed before this resolution was emitted.
	Window int `json:"window"`
}

// bucketKey addresses one open (window, cell) accumulation bucket.
type bucketKey struct {
	Window int
	Cell   geo.CellID
}

// bucket accumulates one window+cell's observations until the watermark
// closes it, and reads no pixel doing so: an E observation is appended as it
// arrives, repeats and all, and so is a V observation, beside its journal
// position. Sealing and imaging put the EIDs in canonical form
// (canonicalEIDs), and the fold orders and deduplicates the detections
// (canonicalDets), so any arrival order within the lateness bound still
// produces the same closed scenario (the permutation property test pins
// this).
type bucket struct {
	eids []scenario.EIDAttr
	dets []scenario.Detection
	// refs[i] is the journal position (ShardMsg.Pos) of the observation
	// dets[i] came from — 0 in the Engine's windower, which has no journal.
	refs []int64
}

// absorb folds one observation, journalled at pos, into the bucket.
func (b *bucket) absorb(pos int64, o Observation) {
	switch o.Kind {
	case KindE:
		b.eids = append(b.eids, scenario.EIDAttr{EID: o.EID, Attr: o.Attr})
	case KindV:
		d := scenario.Detection{VID: o.VID, TruePerson: o.Person}
		if o.Patch != nil { // nil off the shard wire, which carries no patch
			d.Patch = *o.Patch
		}
		b.dets = append(b.dets, d)
		b.refs = append(b.refs, pos)
	}
}

// canonicalEIDs returns a bucket's E observations as a scenario holds them:
// ascending EIDs, each once, inclusive beating vague whatever order they
// arrived in — the one form an EID set takes from the windower to the store,
// on the shard wire and in a checkpoint alike. Input already in that form is
// returned as it is; anything else is copied, never written, because an
// image of a live bucket is encoded after the engine's lock is released.
func canonicalEIDs(eids []scenario.EIDAttr) []scenario.EIDAttr {
	canonical := true
	for i := 1; i < len(eids) && canonical; i++ {
		canonical = eids[i-1].EID < eids[i].EID
	}
	if canonical {
		return eids
	}
	out := slices.Clone(eids)
	// AttrInclusive sorts before AttrVague, so each EID's run opens with its
	// strongest attribute, which the compaction keeps.
	slices.SortFunc(out, func(a, b scenario.EIDAttr) int {
		return cmp.Or(cmp.Compare(a.EID, b.EID), cmp.Compare(a.Attr, b.Attr))
	})
	return slices.CompactFunc(out, func(a, b scenario.EIDAttr) bool { return a.EID == b.EID })
}

// compareDets is the total order of detections: VID, TruePerson, pixel bytes,
// patch width, height. VID labels are zero-padded person indexes, so for
// generated worlds this is the batch generator's person-index order; the later
// keys only break ties between synthetic near-duplicates.
func compareDets(a, b *scenario.Detection) int {
	if c := cmp.Compare(a.VID, b.VID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.TruePerson, b.TruePerson); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Patch.Pix, b.Patch.Pix); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Patch.W, b.Patch.W); c != 0 {
		return c
	}
	return cmp.Compare(a.Patch.H, b.Patch.H)
}

// canonicalDets returns a closure's detections as a scenario holds them —
// ascending in compareDets, each full identity once — and how many repeats it
// dropped: byte-identical to the batch store's whatever order they arrived
// in, which also fixes the V stage's accumulation order (float results depend
// on it). Input already in that form (a log in store order, a checkpoint's
// scenarios) is returned as it is; anything else is copied, never written.
func canonicalDets(dets []scenario.Detection) ([]scenario.Detection, int) {
	canonical := true
	for i := 1; i < len(dets) && canonical; i++ {
		canonical = compareDets(&dets[i-1], &dets[i]) < 0
	}
	if canonical {
		return dets, 0
	}
	out := slices.Clone(dets)
	slices.SortFunc(out, func(a, b scenario.Detection) int { return compareDets(&a, &b) })
	out = slices.CompactFunc(out, func(a, b scenario.Detection) bool { return compareDets(&a, &b) == 0 })
	return out, len(dets) - len(out)
}

// Engine is the incremental matcher: the inline composition of a frontier
// (admission, watermark, close targets), one ShardWindower (the open
// buckets) and the fold (store, partition, filter, resolutions) on the
// caller's goroutine. A Router composes the same three parts across shard
// goroutines or processes and uses an Engine as its merge stage, driving only
// the fold. It is safe for concurrent use.
type Engine struct {
	mu     sync.Mutex
	cfg    Config
	store  *scenario.Store
	batch  *core.Matcher // Finalize's serial in-order SS over store
	part   *partition.Partition
	filter *vfilter.Filter

	// front and win are the ingest side. A router's merge-stage engine never
	// ingests, so both stay at their initial state there.
	front frontier
	win   *ShardWindower

	// blockCandidates and blockPruned count the sealed scenarios the
	// partition's live-target probe admitted and skipped (DESIGN.md §13).
	// Restore rebuilds both, with the live set, deterministically by
	// replaying the checkpointed scenarios through the same probe, so no
	// checkpoint field carries them.
	blockCandidates int64
	blockPruned     int64
	// pending holds the targets the partition has resolved that have no
	// resolution yet, as positions in part.Targets(), in resolve order: the
	// resolve hook appends, and the sweep takes what it can match and keeps
	// the rest. ords[i] is the store ordinal of part.Targets()[i].
	pending []int
	ords    []int32

	// Spill tier (DESIGN.md §14), active when cfg.MemBudget > 0: sealed V
	// payloads are charged against spillBudget as windows close and evicted
	// to pager in spillQueue (seal) order once over budget; spillStats
	// counts the evictions and the pager's writes and reloads.
	spillStats  *spill.Stats
	pager       *windowPager
	spillBudget *spill.Budget
	spillQueue  *spill.FIFO

	// duplicates counts the repeated detections the fold has dropped, and
	// resolutionsDropped the resolutions broadcast lost to full subscriber
	// channels.
	duplicates         int64
	resolutionsDropped int64

	// emitted is every resolution in emission order, the one record of the
	// engine's answers: its length is the last Seq, and a restore derives
	// the resolved and accepted sets from it. exclusion holds the VIDs its
	// acceptable answers ruled out, as MatchInOrder fills it.
	emitted   []Resolution
	exclusion *vfilter.Exclusion

	subs []chan Resolution // in subscription order, the delivery order
}

// NewEngine creates an Engine over an empty scenario store.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Targets = ids.SortEIDs(append([]ids.EID(nil), cfg.Targets...))
	e := &Engine{cfg: cfg, front: newFrontier(cfg.WindowMS, cfg.LatenessMS)}
	if err := e.resetMatchState(); err != nil {
		return nil, err
	}
	if err := e.resetWindower(nil); err != nil {
		return nil, err
	}
	return e, nil
}

// resetWindower installs a windower holding the given open buckets (engine
// construction and checkpoint restore).
func (e *Engine) resetWindower(open []scenario.Record) error {
	win, err := NewShardWindower(e.shardParams(), open)
	if err != nil {
		return err
	}
	e.win = win
	return nil
}

// shardParams is the windowing configuration of the engine's windower and of
// every shard a Router runs. WorkFactor, which a windower only validates,
// carries the batch matcher's extraction cost.
func (e *Engine) shardParams() ShardParams {
	return ShardParams{WindowMS: e.cfg.WindowMS, Dim: e.cfg.Dim, WorkFactor: e.batch.Options().WorkFactor}
}

// resetMatchState builds a fresh store, batch matcher, partition, and filter
// (engine construction and checkpoint restore).
func (e *Engine) resetMatchState() error {
	e.store = scenario.NewStore(nil)
	batch, err := core.New(&dataset.Dataset{
		Config: dataset.Config{FeatureDim: e.cfg.Dim},
		Store:  e.store,
	}, core.Options{
		Algorithm: core.AlgorithmSS,
		Mode:      core.ModeSerial,
		ScanOrder: core.ScanInOrder,
	})
	if err != nil {
		return err
	}
	e.batch = batch
	p, err := partition.New(e.cfg.Targets)
	if err != nil {
		return err
	}
	ords := p.BindStore(e.store)
	e.part, e.ords = p, ords
	e.pending = nil
	if p.NumTargets() == 1 {
		e.pending = []int{0} // born resolved: no split will report it
	}
	e.part.OnResolve(func(i int) { e.pending = append(e.pending, i) })
	e.blockCandidates, e.blockPruned = 0, 0
	// The live filter scores under the batch run's defaulted options, so a
	// live resolution and Finalize's weigh the same evidence alike.
	opts := batch.Options()
	f, err := vfilter.New(e.store, vfilter.Config{
		Extractor:      feature.Extractor{Dim: e.cfg.Dim, WorkFactor: opts.WorkFactor},
		AcceptMajority: opts.AcceptMajority,
	})
	if err != nil {
		return err
	}
	e.filter = f
	e.exclusion = f.NewExclusion()
	if e.cfg.MemBudget > 0 {
		if e.spillStats == nil {
			e.spillStats = &spill.Stats{}
		}
		if e.pager != nil {
			e.pager.Close()
		}
		pager, err := newWindowPager(spill.OS{}, e.cfg.SpillDir, e.spillStats)
		if err != nil {
			return err
		}
		e.pager = pager
		e.store.SetVPager(pager)
		e.filter.SetMatrixSource(pager.LoadMatrix)
		e.spillBudget = spill.NewBudget(e.cfg.MemBudget)
		e.spillQueue = &spill.FIFO{}
	}
	return nil
}

// Ingest consumes one observation. It returns whether the observation was
// accepted: late observations (whose window the watermark already closed)
// are dropped, counted, and reported as not accepted, with a nil error.
func (e *Engine) Ingest(o Observation) (bool, error) {
	if err := o.Validate(); err != nil {
		return false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.front.admit(o.TS) {
		return false, nil
	}
	e.win.absorb(0, o)
	if target, closes := e.front.observe(o.TS); closes {
		if err := e.closeTo(target); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Watermark returns the current event-time watermark and whether any event
// has been observed yet.
func (e *Engine) Watermark() (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.front.watermark()
}

// closeTo closes every window below target: the windower seals their buckets,
// the frontier records the new close point, and the closures are folded.
// Callers hold e.mu.
func (e *Engine) closeTo(target int) error {
	sealed := e.win.seal(target)
	e.front.closeBelow(target)
	return e.foldLocked(sealed, target)
}

// foldLocked is the one fold: apply a (window, cell)-sorted batch of sealed
// closures — every window below target, from the engine's own windower or
// merged from a router's shards — then sweep resolutions. Callers hold e.mu.
func (e *Engine) foldLocked(sealed []ShardSealed, target int) error {
	for i := range sealed {
		if _, err := e.applySealedLocked(&sealed[i]); err != nil {
			return fmt.Errorf("stream: close window %d cell %d: %w", sealed[i].Window, sealed[i].Cell, err)
		}
	}
	return e.sweepResolutions(target - 1)
}

// applySealedLocked folds one sealed closure — fresh from a windower, resolved
// from a shard's references, or replayed from a checkpoint — into the store
// and partition: its EID list, canonical wherever it came from, and its
// detections, canonicalised — every composition comes through here, so this
// is the one place a scenario's V side is ordered. No features come with it:
// the filter extracts a scenario the first time a match reads it, so only
// what SS selects is ever looked at. Callers hold e.mu.
func (e *Engine) applySealedLocked(w *ShardSealed) (scenario.ID, error) {
	var vsc *scenario.VScenario
	if dets, dropped := canonicalDets(w.Dets); len(dets) > 0 {
		e.duplicates += int64(dropped)
		vsc = &scenario.VScenario{Cell: w.Cell, Window: w.Window, Detections: dets}
	}
	id, err := e.store.Add(w.Cell, w.Window, w.EIDs, vsc)
	if err != nil {
		return id, err
	}
	e.splitSealedLocked(id)
	return id, e.noteSealedLocked(id, vsc)
}

// splitSealedLocked refines the partition with one sealed scenario, read as
// its store view, through the partition's live-target probe. SplitView ignores ordinals
// outside the partition's targets and is a no-op once every set is a
// singleton, so applying the full scenario records the same
// effective-scenario list as the batch split stage's filtered,
// early-exiting scan (DESIGN.md §10); a scenario the live-target probe
// prunes is exactly such a no-op — it could neither change a leaf nor be
// recorded — so skipping it preserves that equivalence bit for bit.
// Checkpoint restore replays through this same path, which deterministically
// rebuilds the live set and both counters without any checkpoint field.
// Callers hold e.mu.
func (e *Engine) splitSealedLocked(id scenario.ID) {
	v := e.store.View(id)
	if e.part.Prunes(v) {
		e.blockPruned++
		return
	}
	e.blockCandidates++
	e.part.SplitView(id, v)
}

// applyRound is the sharded router's merge hook: the fold, over one close
// round's closures merged across shards — the very call closeTo makes for the
// single engine, which is why the merged state is bit-identical to an
// unsharded replay.
func (e *Engine) applyRound(sealed []ShardSealed, target int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.foldLocked(sealed, target)
}

// sweepResolutions emits a resolution for every pending target — one whose
// set has become a singleton — in sorted EID order, stamped with window, the
// last one closed; acceptable VIDs are ruled out for later matches,
// mirroring the batch V stage's serial rule-out. A target whose padded list
// is still empty stays pending. The targets and their lists are fixed before
// any is matched — nothing a match does moves the partition or the store — so
// one vfilter.MatchInOrder call scores the whole sweep on every core, and
// broadcast yields the emitting goroutine's P after each delivery, so a
// subscriber takes each resolution as it is decided rather than in one burst
// when the sweep ends. Callers hold e.mu, and
// hold it throughout: the emit callback below runs on MatchInOrder's
// goroutines, one call at a time and all of them before it returns, so the
// engine state it writes stays under the caller's lock.
func (e *Engine) sweepResolutions(window int) error {
	if len(e.pending) == 0 {
		return nil
	}
	// Targets() is sorted, so ascending positions are sorted EIDs.
	slices.Sort(e.pending)
	ords := make([]int32, len(e.pending))
	lists := make([][]scenario.ID, len(e.pending))
	for k, i := range e.pending {
		ords[k], lists[k] = e.ords[i], e.part.PositiveScenarios(i)
	}
	// Ingest takes no context; the sweep is bounded by its target list.
	ctx := context.TODO()
	if err := core.PadLists(ctx, e.store, ords, lists, e.store.Windows()); err != nil {
		return err
	}
	var targets []ids.EID
	listed := lists[:0]
	waiting := e.pending[:0]
	for k, i := range e.pending {
		if len(lists[k]) == 0 {
			waiting = append(waiting, i) // no closed scenario mentions the EID yet; retry later
			continue
		}
		targets = append(targets, e.part.Targets()[i])
		listed = append(listed, lists[k])
	}
	e.pending = waiting
	return e.filter.MatchInOrder(ctx, targets, listed, e.exclusion, func(_ int, res vfilter.Result) {
		r := Resolution{
			Seq:          len(e.emitted) + 1,
			EID:          res.EID,
			VID:          res.VID,
			Probability:  res.Probability,
			MajorityFrac: res.MajorityFrac,
			RunnerUp:     res.RunnerUp,
			Margin:       res.Margin,
			Acceptable:   res.Acceptable,
			Window:       window,
		}
		e.emitted = append(e.emitted, r)
		e.broadcast(r)
	})
}

// broadcast delivers r to every subscriber, dropping — and counting — on a
// full buffer so a stalled consumer cannot block ingestion. A delivery
// readies the parked receiver in this P's runnext slot, where it would wait
// until the sweep ends or the runtime preempts a scorer, so once anything
// was delivered broadcast yields the P: the receiver runs, takes r, parks
// again, and the sweep resumes (DESIGN.md §10, Delivery). With no subscriber
// nothing is sent and nothing yields. Callers hold e.mu.
func (e *Engine) broadcast(r Resolution) {
	delivered := false
	for _, c := range e.subs {
		select {
		case c <- r:
			delivered = true
		default:
			e.resolutionsDropped++
		}
	}
	if delivered {
		runtime.Gosched()
	}
}

// Subscribe returns the resolutions emitted so far plus a channel of future
// ones. The returned cancel closes the channel and must be called once.
func (e *Engine) Subscribe() (backlog []Resolution, ch <-chan Resolution, cancel func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	backlog = append([]Resolution(nil), e.emitted...)
	c := make(chan Resolution, 1024)
	e.subs = append(e.subs, c)
	return backlog, c, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if i := slices.Index(e.subs, c); i >= 0 {
			e.subs = slices.Delete(e.subs, i, i+1)
			close(c)
		}
	}
}

// Flush closes every open bucket regardless of the watermark — the
// end-of-log signal — and runs a final resolution sweep.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

func (e *Engine) flushLocked() error {
	return e.closeTo(e.front.flushTarget())
}

// Finalize flushes the stream and runs the authoritative batch match over
// the stream-built store under core.ScanInOrder, cross-checking that the
// incremental split recorded exactly the scenarios the batch split does. The
// returned report's Fingerprint equals the batch SS fingerprint over the
// same data — the subsystem's headline invariant.
func (e *Engine) Finalize(ctx context.Context) (*core.Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.flushLocked(); err != nil {
		return nil, err
	}
	rep, err := e.batch.Match(ctx, e.cfg.Targets)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(rep.SplitScenarios, e.part.Recorded()) {
		return nil, fmt.Errorf("%w: batch recorded %v, stream recorded %v",
			ErrDiverged, rep.SplitScenarios, e.part.Recorded())
	}
	return rep, nil
}

// Ingested returns how many observations Ingest has consumed (accepted or
// dropped) — the resume offset a restored consumer skips to in the log.
func (e *Engine) Ingested() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.front.ingested
}

// LateDropped returns how many observations arrived after their window
// closed and were dropped.
func (e *Engine) LateDropped() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.front.lateDropped
}

// Resolutions returns a copy of every resolution emitted so far.
func (e *Engine) Resolutions() []Resolution {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Resolution(nil), e.emitted...)
}

// OpenWindows returns how many distinct windows currently have open buckets.
func (e *Engine) OpenWindows() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.front.open)
}

// Gauges returns a fresh snapshot of the engine's gauges, read under its
// lock: the open windows and detections, the repeats the fold dropped, the
// watermark's lag behind cfg.Clock, the targets still pending, the
// resolutions emitted and lost to full subscribers, the late drops, and how
// many sealed scenarios the partition's live-target probe admitted to
// (candidates) and excluded from (pruned) split refinement. The lag is taken
// at the call, so it keeps growing while no observation arrives.
func (e *Engine) Gauges() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	lag := int64(0)
	if wm, ok := e.front.watermark(); ok {
		lag = e.cfg.Clock.Now().UnixMilli() - wm
	}
	return map[string]int64{
		"stream_open_windows":         int64(len(e.front.open)),
		"stream_open_detections":      e.win.openDets,
		"stream_duplicate_detections": e.duplicates,
		"stream_watermark_lag_ms":     lag,
		"stream_pending_eids":         int64(e.part.NumTargets() - len(e.emitted)),
		"stream_resolutions_emitted":  int64(len(e.emitted)),
		"stream_resolutions_dropped":  e.resolutionsDropped,
		"stream_late_dropped":         e.front.lateDropped,
		"block_candidates_total":      e.blockCandidates,
		"block_pruned_total":          e.blockPruned,
		"block_prune_ratio":           BlockPruneRatioPercent(e.blockCandidates, e.blockPruned),
	}
}

// FilterStats returns the work counters of the sweep's V filter: the
// scenarios it has looked at and the patches it has extracted — what the
// stream's matches selected, never the whole of what was sealed. Finalize's
// batch run has a filter of its own and does not count here.
func (e *Engine) FilterStats() vfilter.Stats {
	return e.filter.Stats()
}

// BlockPruneRatioPercent renders a candidates/pruned pair as the integer
// percentage of scenarios pruned, 0–100 — the gauges are int64, so the
// ratio is served in percent (documented on /metricsz consumers).
func BlockPruneRatioPercent(candidates, pruned int64) int64 {
	total := candidates + pruned
	if total == 0 {
		return 0
	}
	return pruned * 100 / total
}
