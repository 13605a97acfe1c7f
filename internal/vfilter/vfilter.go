// Package vfilter implements VID filtering, the V stage of EV-Matching
// (paper §IV-B2). Given the E-Scenario list selected for an EID by set
// splitting, it processes only the corresponding V-Scenarios: it extracts
// appearance features from every detection (paying the video-processing
// cost, once per scenario thanks to a shared cache — the reuse that gives SS
// its win over EDP), scores every candidate VID with
// P(v) = Π_S max_d sim(v, d) (Equation 1 and the simplification of §IV-B2),
// and majority-votes the per-scenario winners.
//
// The Match hot path allocates only its compact outcome: each V-Scenario's
// features live in one contiguous feature.Matrix (extracted in place, row by
// row), candidate masks are bitset-backed dense tables over the Filter's
// interned VID ordinals, per-candidate state is slice-indexed scratch
// recycled through a sync.Pool, and scoring makes one feature.MaxSimBatch
// call per scenario over all surviving candidates, each seeded with its own
// detection in that scenario. Candidates are census-pruned before any feature
// accumulation, so the expensive per-candidate work (running means, MaxSim)
// only touches the VIDs that can still win the vote. Already-matched VIDs
// arrive as an Exclusion — a bitset over the same ordinals, maintained by the
// caller — so a Match over cached scenarios takes the Filter's mutex only to
// look its scenarios up in the cache, never for exclusions or counters (work
// counters and the ordinal count are atomics).
//
// A Match is two steps. Score is everything that reads feature data, up to
// each candidate's trajectory probability; Decide is the vote over those
// probabilities. The rule-out of Theorem 4.1 — each accepted VID is out for
// the targets after it — orders only the second: a candidate's probability
// does not depend on which other candidates exist, so MatchInOrder scores a
// whole target list on GOMAXPROCS goroutines and decides it strictly in
// order, with the results of the one-at-a-time loop bit for bit. It is the
// one such loop in the module: serial SS, the streaming sweep and the sharded
// merger all call it.
package vfilter

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"evmatching/internal/bitset"
	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// ErrNoStore reports construction without a scenario store.
var ErrNoStore = errors.New("vfilter: nil scenario store")

// Config parameterizes the filter.
type Config struct {
	// Extractor recovers feature vectors from detection patches.
	Extractor feature.Extractor
	// AcceptMajority is the minimum fraction of per-scenario votes the
	// winning VID must collect for the match to be acceptable (matching
	// refining re-runs unacceptable EIDs). Zero means any plurality wins.
	AcceptMajority float64
}

// Stats counts the visual-processing work performed, the paper's proxy for V
// stage cost: unique scenarios processed, feature extractions attempted
// (successful or not — a scenario whose extraction fails midway still paid
// for the attempts made), and feature comparisons.
//
// Comparisons counts what was scored, and under MatchInOrder that is exact —
// the one-at-a-time loop's count — only at GOMAXPROCS 1. With more workers a
// target is scored while the few before it are still being scored, so a VID
// one of them is about to be matched with is not ruled out yet and gets
// scored (and counted) as a candidate too; the results do not change.
type Stats struct {
	ScenariosProcessed int
	Extractions        int
	Comparisons        int
}

// Result is the outcome of matching one EID.
type Result struct {
	EID ids.EID
	// VID is the matched visual identity (majority of per-scenario picks),
	// or ids.NoVID when no candidate was available.
	VID ids.VID
	// Probability is the matched VID's trajectory probability Π P(v ∈ S).
	Probability float64
	// MajorityFrac is the fraction of voting scenarios won by VID.
	MajorityFrac float64
	// PerScenario records each scenario's winning VID, aligned with the
	// scenario list passed to Match (NoVID for scenarios with no usable
	// detections).
	PerScenario []ids.VID
	// Acceptable reports whether the vote clears Config.AcceptMajority.
	Acceptable bool
	// RunnerUp is the second-choice VID by trajectory probability, and
	// Margin the ratio P(VID)/P(RunnerUp) — a margin near 1 flags a match
	// worth refining or reviewing. Margin is +Inf for a lone candidate.
	RunnerUp ids.VID
	Margin   float64
}

// cacheEntry holds one V-Scenario's extracted features, computed once. The
// matrix is the kernel-facing storage; rows are per-detection views into it
// kept for the public Features accessor.
type cacheEntry struct {
	once sync.Once
	m    *feature.Matrix
	rows []feature.Vector // views into m, parallel to the detections
	ords []int32          // Filter-wide VID ordinal per detection
	err  error
}

// Filter matches EIDs to VIDs over one scenario store. It is safe for
// concurrent Match calls; the extraction cache is shared so each V-Scenario
// is processed at most once per Filter.
type Filter struct {
	store *scenario.Store
	cfg   Config

	mu    sync.Mutex // guards cache and the VID intern tables
	cache map[scenario.ID]*cacheEntry
	// VID interning: every VID observed in an extracted scenario gets a
	// dense ordinal, so the Match hot loops index slices and bitsets instead
	// of hashing string VIDs. Ordinals are stable for the Filter's lifetime.
	vidOrd   map[ids.VID]int32
	vidByOrd []ids.VID
	numVID   atomic.Int64 // len(vidByOrd), readable without mu

	// matrixSource, when set, is consulted before extraction: if it returns
	// a matrix for the scenario (e.g. reloaded from the spill tier), that
	// matrix is installed instead of re-extracting from detection patches.
	// Set once at construction time, before any Match runs.
	matrixSource MatrixSource

	scenariosProcessed atomic.Int64
	extractions        atomic.Int64
	comparisons        atomic.Int64

	pool sync.Pool // of *scratch
}

// New creates a Filter over the store.
func New(store *scenario.Store, cfg Config) (*Filter, error) {
	if store == nil {
		return nil, ErrNoStore
	}
	if cfg.Extractor.Dim < 2 {
		return nil, fmt.Errorf("vfilter: extractor dim %d", cfg.Extractor.Dim)
	}
	if cfg.AcceptMajority < 0 || cfg.AcceptMajority > 1 {
		return nil, fmt.Errorf("vfilter: AcceptMajority %f out of [0,1]", cfg.AcceptMajority)
	}
	f := &Filter{
		store:  store,
		cfg:    cfg,
		cache:  make(map[scenario.ID]*cacheEntry),
		vidOrd: make(map[ids.VID]int32),
	}
	f.pool.New = func() any { return new(scratch) }
	return f, nil
}

// MatrixSource supplies a previously extracted feature matrix for a
// scenario, or (nil, nil) when it has none. The matrix must be the one this
// Filter (or an identically configured extractor) produced, so a reload is
// bit-identical to re-extraction.
type MatrixSource func(id scenario.ID) (*feature.Matrix, error)

// SetMatrixSource installs the reload path for spilled feature matrices.
// Must be called before the first Match.
func (f *Filter) SetMatrixSource(src MatrixSource) { f.matrixSource = src }

// Drop removes id's cached features and returns the extracted matrix, so
// the eviction path can spill it for later reload through the matrix
// source. Entries that never finished extracting (or failed) are kept and
// (nil, false) is returned. The caller serializes Drop against Match.
func (f *Filter) Drop(id scenario.ID) (*feature.Matrix, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, ok := f.cache[id]
	if !ok || entry.m == nil {
		return nil, false
	}
	delete(f.cache, id)
	return entry.m, true
}

// Stats returns a snapshot of the accumulated work counters.
func (f *Filter) Stats() Stats {
	return Stats{
		ScenariosProcessed: int(f.scenariosProcessed.Load()),
		Extractions:        int(f.extractions.Load()),
		Comparisons:        int(f.comparisons.Load()),
	}
}

// Features returns the extracted feature vectors of the V-Scenario with the
// given ID, computing and caching them on first use. A scenario with no
// detections yields (nil, nil). The returned vectors are views into the
// scenario's feature matrix; callers must not modify them.
func (f *Filter) Features(id scenario.ID) ([]feature.Vector, error) {
	s := f.pool.Get().(*scratch)
	entry, err := f.features(id, &s.xbuf)
	f.pool.Put(s)
	if err != nil {
		return nil, err
	}
	if entry == nil {
		return nil, nil
	}
	return entry.rows, entry.err
}

// ExtractBatch processes a contiguous batch of V-Scenarios through the
// shared extraction cache — the worker-side entry point of the batched
// parallel V stage (paper §V-C). One pooled scratch provides the single
// extraction buffer reused across every patch of every scenario in the
// batch, so a worker amortizes working-storage costs across the scenarios it
// owns instead of paying them per task. Scenarios already extracted (by this
// or any concurrent caller) are skipped by the cache. The first extraction
// error is returned; earlier scenarios of the batch stay cached.
func (f *Filter) ExtractBatch(list []scenario.ID) error {
	if len(list) == 0 {
		return nil
	}
	s := f.pool.Get().(*scratch)
	defer f.pool.Put(s)
	for _, id := range list {
		entry, err := f.features(id, &s.xbuf)
		if err != nil {
			return err
		}
		if entry != nil && entry.err != nil {
			return entry.err
		}
	}
	return nil
}

// features returns the scenario's populated cache entry, or nil when the
// scenario has no detections. The error return is a page-in failure from
// the store (an evicted payload that could not be reloaded); extraction
// failures stay cached inside the entry as before.
func (f *Filter) features(id scenario.ID, buf *feature.ExtractBuf) (*cacheEntry, error) {
	v, err := f.store.VChecked(id)
	if err != nil {
		return nil, err
	}
	return f.featuresFor(id, v, buf), nil
}

// featuresFor is features for a caller that already fetched (or paged in)
// the V-Scenario, so the hot Match path touches the store exactly once per
// scenario. A failed extraction is cached (and its cost counted) once;
// later calls observe the same error without re-extracting. buf is the
// caller's reusable extraction working storage.
func (f *Filter) featuresFor(id scenario.ID, v *scenario.VScenario, buf *feature.ExtractBuf) *cacheEntry {
	if v == nil || len(v.Detections) == 0 {
		return nil
	}
	f.mu.Lock()
	entry := f.cache[id]
	if entry == nil {
		entry = &cacheEntry{}
		f.cache[id] = entry
	}
	f.mu.Unlock()

	entry.once.Do(func() {
		// A spilled matrix, when available, short-circuits extraction: it
		// is the same matrix a previous extraction produced, so installing
		// it is bit-identical to re-extracting the patches.
		if src := f.matrixSource; src != nil {
			m, err := src(id)
			if err != nil {
				entry.err = fmt.Errorf("vfilter: reload features scenario %d: %w", id, err)
				return
			}
			if m != nil {
				f.fill(entry, v, m)
				return
			}
		}
		m, err := feature.NewMatrix(f.cfg.Extractor.Dim, len(v.Detections))
		if err != nil {
			entry.err = fmt.Errorf("vfilter: features scenario %d: %w", id, err)
			return
		}
		for i := range v.Detections {
			if err := f.cfg.Extractor.ExtractIntoBuf(v.Detections[i].Patch, m.Row(i), buf); err != nil {
				entry.err = fmt.Errorf("vfilter: extract scenario %d detection %d: %w", id, i, err)
				// The i successful extractions plus this failed attempt were
				// real work; count them even though the scenario is unusable.
				f.extractions.Add(int64(i + 1))
				return
			}
		}
		f.fill(entry, v, m)
	})
	return entry
}

// fill completes a cache entry from an extracted matrix: row views, interned
// VID ordinals, and the work counters. Callers run inside entry.once.
func (f *Filter) fill(entry *cacheEntry, v *scenario.VScenario, m *feature.Matrix) {
	entry.m = m
	entry.rows = make([]feature.Vector, m.Rows())
	for i := range entry.rows {
		entry.rows[i] = m.Row(i)
	}
	ords := make([]int32, len(v.Detections))
	f.mu.Lock()
	for i := range v.Detections {
		ords[i] = f.internLocked(v.Detections[i].VID)
	}
	f.mu.Unlock()
	entry.ords = ords
	f.scenariosProcessed.Add(1)
	f.extractions.Add(int64(m.Rows()))
}

// internLocked returns vid's ordinal, assigning the next one on first sight.
// Callers hold f.mu.
func (f *Filter) internLocked(vid ids.VID) int32 {
	ord, ok := f.vidOrd[vid]
	if !ok {
		ord = int32(len(f.vidByOrd))
		f.vidOrd[vid] = ord
		f.vidByOrd = append(f.vidByOrd, vid)
		f.numVID.Store(int64(len(f.vidByOrd)))
	}
	return ord
}

// Exclusion is a set of VIDs ruled out of a Match — the already-matched VIDs
// of Theorem 4.1 — held as a bitset over its Filter's interned VID ordinals,
// so Match tests membership with one word load per detection instead of
// re-hashing a VID set on every call. It is the caller's running state: the
// serial V stage Adds each accepted VID and hands the same Exclusion to the
// next Match.
//
// An Exclusion is not synchronized. Any number of concurrent Match calls may
// share one that nobody is adding to; Add must not run concurrently with
// another Add, a Clone, or a Match reading it. For the length of a
// MatchInOrder call the Exclusion handed to it belongs to that call: its
// goroutines score against private copies, and it alone Adds, one decided
// target at a time, under the lock the copies are taken under. Nobody else —
// emit included — Adds to it or reads it until the call returns.
type Exclusion struct {
	f    *Filter
	bits bitset.Set
}

// NewExclusion returns an empty exclusion set for Match calls on f.
func (f *Filter) NewExclusion() *Exclusion { return &Exclusion{f: f} }

// Add rules vid out. A VID the Filter has not extracted yet is interned on
// the spot, so the exclusion already holds when a later scenario first
// sights it.
func (x *Exclusion) Add(vid ids.VID) {
	x.f.mu.Lock()
	ord := int(x.f.internLocked(vid))
	x.f.mu.Unlock()
	for len(x.bits)*64 <= ord {
		x.bits = append(x.bits, 0)
	}
	x.bits.Add(ord)
}

// Clone returns an independent copy of x.
func (x *Exclusion) Clone() *Exclusion {
	return &Exclusion{f: x.f, bits: x.bits.Clone()}
}

// has reports whether the VID with ordinal ord is excluded. The set covers
// only the ordinals that existed at its last Add, so any ordinal beyond it —
// like every ordinal of a nil Exclusion — is simply not excluded.
func (x *Exclusion) has(ord int32) bool {
	if x == nil {
		return false
	}
	w := int(ord >> 6)
	return w < len(x.bits) && x.bits[w]&(1<<(uint(ord)&63)) != 0
}

// scan pairs one scenario of the Match list with its feature matrix and the
// interned VID ordinals of its detections.
type scan struct {
	v    *scenario.VScenario
	m    *feature.Matrix
	ords []int32
}

// scratch is the per-Match working state, recycled through Filter.pool. The
// candidate census runs over dense ordinal-indexed tables: a bitset mask for
// pruning survival plus presence counters, all sized by the Filter's VID
// intern table. Only candidates surviving the census get slots
// (numbered by discovery order); every per-candidate quantity lives in a
// slot-indexed slice, so the hot loops touch no map at all.
type scratch struct {
	scans []scan
	xbuf  feature.ExtractBuf // extraction working storage, shared per batch

	// Ordinal-indexed dense tables (grow-only; see ensureOrds).
	kept      bitset.Set // VID ordinal → survived trajectory pruning
	presence  []int32    // VID ordinal → scenarios sighted in, this Match
	seenScen  []int64    // VID ordinal → stamp of last scenario counted
	slotByOrd []int32    // VID ordinal → slot, -1 when absent
	stamp     int64      // monotone per-scenario stamp; never reset

	candOrds []int32 // ordinals sighted this Match, discovery order

	// Slot-indexed state for the surviving candidates.
	slotOrds []int32   // slot → VID ordinal, discovery order
	vids     []ids.VID // slot → VID, discovery order
	order    []int32   // slots in lexicographic VID order (the deterministic order)
	accs     []feature.MeanAccum
	prob     []float64
	reps     []float64 // slot-major representative slab, nslots×dim
	seeds    []int32   // slot → row of the slot's own detection in the scenario being scored, -1 when not sighted
	sims     []float64 // slot → max similarity in the scenario being scored
	// present[offs[i]:offs[i+1]] holds the slots scenario i sights (see Scored).
	present []int32
	offs    []int32
}

// reset prepares the scratch for a Match over n scenarios. accs keeps its
// length (each accumulator owns a reusable buffer). The ordinal tables of
// the previous Match are put back entry by entry (presence via candOrds,
// slotByOrd via slotOrds), so they never need a full clear; seenScen relies
// on the monotone stamp and is never cleared at all.
func (s *scratch) reset(n int) {
	if cap(s.scans) < n {
		s.scans = make([]scan, n)
	}
	s.scans = s.scans[:n]
	for i := range s.scans {
		s.scans[i] = scan{}
	}
	for _, ord := range s.candOrds {
		s.presence[ord] = 0
	}
	s.candOrds = s.candOrds[:0]
	for _, ord := range s.slotOrds {
		s.slotByOrd[ord] = -1
	}
	s.slotOrds = s.slotOrds[:0]
	s.vids = s.vids[:0]
	s.order = s.order[:0]
	s.prob = s.prob[:0]
	s.present = s.present[:0]
	s.offs = s.offs[:0]
}

// ensureOrds sizes the ordinal-indexed tables for a Filter that has interned
// numVID VIDs so far. The counter tables only grow (ordinals are stable for
// the Filter's lifetime); the kept mask is word-wise cleared for the new
// Match, or reallocated when the ordinal universe outgrew it.
func (s *scratch) ensureOrds(numVID int) {
	for len(s.slotByOrd) < numVID {
		s.slotByOrd = append(s.slotByOrd, -1)
	}
	for len(s.presence) < numVID {
		s.presence = append(s.presence, 0)
	}
	for len(s.seenScen) < numVID {
		s.seenScen = append(s.seenScen, 0)
	}
	if len(s.kept)*64 < numVID {
		s.kept = bitset.New(numVID)
	} else {
		s.kept.Clear()
	}
}

func (s *scratch) slots() int { return len(s.vids) }

// addSlot registers a surviving candidate VID and returns its slot.
func (s *scratch) addSlot(vid ids.VID, ord int32, dim int) int {
	n := len(s.vids)
	s.vids = append(s.vids, vid)
	s.slotOrds = append(s.slotOrds, ord)
	s.slotByOrd[ord] = int32(n)
	s.prob = append(s.prob, 1)
	if n == len(s.accs) {
		s.accs = append(s.accs, feature.MeanAccum{})
	}
	s.accs[n].Reset(dim)
	return n
}

// rep returns the slot's representative vector within the slab.
func (s *scratch) rep(slot, dim int) feature.Vector {
	return feature.Vector(s.reps[slot*dim : (slot+1)*dim])
}

// Match finds the VID for EID e among the V-Scenarios of the given list,
// excluding already-matched VIDs (the rule-out of Theorem 4.1); a nil
// Exclusion rules nothing out. The list is the EID's positive scenario list
// from set splitting. Match is Decide(Score(e, list, exclude), exclude).
func (f *Filter) Match(e ids.EID, list []scenario.ID, exclude *Exclusion) (Result, error) {
	sc, err := f.Score(e, list, exclude)
	if err != nil {
		return emptyResult(e, len(list)), err
	}
	return f.Decide(sc, exclude)
}

// emptyResult is the no-match outcome for e over an n-scenario list.
func emptyResult(e ids.EID, n int) Result {
	return Result{EID: e, VID: ids.NoVID, PerScenario: make([]ids.VID, n)}
}

// Scored is the expensive half of one Match, kept compact: the candidates
// that survived trajectory pruning under the Exclusion handed to Score, each
// with its trajectory probability, plus which of them every listed scenario
// sights. Nothing in it refers to the pooled scratch it was computed in, so a
// Scored may wait for its Decide as long as it likes. Decide uses votes as
// working storage: one Scored must not be decided from two goroutines at once.
type Scored struct {
	eid  ids.EID
	list []scenario.ID // the caller's slice; Decide re-scores over it when it must

	// pruned records that trajectory pruning applied: the slots are the
	// candidates over the presence bar, not the everyone-stays fallback.
	pruned bool

	vids  []ids.VID // slot → VID, discovery order
	prob  []float64 // slot → trajectory probability
	ords  []int32   // slot → VID ordinal, what Decide tests a later Exclusion with
	order []int32   // slots in lexicographic VID order (the deterministic order)
	votes []int32   // slot → scenarios won; Decide's working storage
	// present[offs[i]:offs[i+1]] lists the slots scenario i of the list
	// sights, each once. offs is nil when there are no slots.
	present []int32
	offs    []int32
}

// Score does everything of a Match that reads feature data: it extracts (or
// finds cached) the listed scenarios, censuses the candidates exclude leaves
// in play, prunes them by trajectory, and computes each survivor's trajectory
// probability. What it returns depends on exclude only through which
// candidates were dropped before scoring: a candidate's presence count, its
// survival of the presence bar, its representative and its probability are
// functions of its own detections and the full scenario matrices, never of
// which other candidates exist. That is what lets Decide apply a larger
// Exclusion afterwards (see Decide).
func (f *Filter) Score(e ids.EID, list []scenario.ID, exclude *Exclusion) (*Scored, error) {
	if exclude != nil && exclude.f != f {
		return nil, errors.New("vfilter: exclusion belongs to another filter")
	}
	out := &Scored{eid: e, list: list}
	if len(list) == 0 {
		return out, nil
	}
	dim := f.cfg.Extractor.Dim
	s := f.pool.Get().(*scratch)
	defer f.pool.Put(s)
	s.reset(len(list))

	// Gather per-scenario feature matrices first — extraction interns every
	// detection's VID — then size the ordinal tables to cover them all.
	for i, id := range list {
		v, err := f.store.VChecked(id)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		entry := f.featuresFor(id, v, &s.xbuf)
		if entry != nil && entry.err != nil {
			return nil, entry.err
		}
		s.scans[i].v = v
		if entry != nil {
			s.scans[i].m = entry.m
			s.scans[i].ords = entry.ords
		}
	}
	s.ensureOrds(int(f.numVID.Load()))

	// Candidate census: one pass over the detections counts, per VID
	// ordinal, how many listed scenarios sight each non-excluded candidate.
	// The monotone stamp dedups within a scenario without any clearing.
	detecting := 0
	for i := range s.scans {
		sc := &s.scans[i]
		if sc.v == nil || sc.m == nil {
			continue
		}
		if sc.m.Rows() > 0 {
			detecting++
		}
		s.stamp++
		stamp := s.stamp
		for d := range sc.v.Detections {
			ord := sc.ords[d]
			if exclude.has(ord) || s.seenScen[ord] == stamp {
				continue
			}
			s.seenScen[ord] = stamp
			if s.presence[ord] == 0 {
				s.candOrds = append(s.candOrds, ord)
			}
			s.presence[ord]++
		}
	}
	if len(s.candOrds) == 0 {
		return out, nil
	}

	// Trajectory pruning: the matched VID is "the only one having the same
	// trajectory with this EID" (paper §IV-B2), and a VID absent from more
	// than half the detecting scenarios can never carry the majority vote —
	// so drop such candidates outright, before any of the per-candidate
	// feature work. This keeps the candidate pool from growing with crowd
	// density (where each scenario contributes a hundred bystander VIDs) and
	// saves their accumulations and feature comparisons. If nothing clears
	// the bar (severe VID missing), every candidate stays eligible.
	if need := (detecting + 1) / 2; need > 1 {
		for _, ord := range s.candOrds {
			if int(s.presence[ord]) >= need {
				s.kept.Add(int(ord))
				out.pruned = true
			}
		}
	}
	if !out.pruned {
		for _, ord := range s.candOrds {
			s.kept.Add(int(ord))
		}
	}

	// Slot assignment and feature accumulation for the survivors only: each
	// kept candidate's detections stream into its running-mean accumulator
	// (same accumulation order as scanning, so the representative below is
	// exactly the mean of its detection features).
	for i := range s.scans {
		sc := &s.scans[i]
		if sc.v == nil || sc.m == nil {
			continue
		}
		for d := range sc.v.Detections {
			ord := sc.ords[d]
			if !s.kept.Has(int(ord)) {
				continue
			}
			slot := int(s.slotByOrd[ord])
			if slot < 0 {
				slot = s.addSlot(sc.v.Detections[d].VID, ord, dim)
			}
			s.accs[slot].Add(sc.m.Row(d))
		}
	}

	// One deterministic candidate order for every later decision loop:
	// error paths, votes, and runner-up selection must not depend on
	// discovery order.
	for slot := range s.vids {
		s.order = append(s.order, int32(slot))
	}
	slices.SortFunc(s.order, func(a, b int32) int { return cmp.Compare(s.vids[a], s.vids[b]) })

	// Representative feature per candidate, then trajectory probability
	// P(v) = Π_S max_d sim(rep_v, d) over the scenarios with detections.
	n := s.slots()
	if cap(s.reps) < n*dim {
		s.reps = make([]float64, n*dim)
	}
	s.reps = s.reps[:n*dim]
	for _, slot := range s.order {
		if s.accs[slot].Count() == 0 {
			return nil, fmt.Errorf("vfilter: representative for %s: feature: mean of no vectors", s.vids[slot])
		}
		s.accs[slot].MeanInto(s.rep(int(slot), dim))
	}
	// One kernel call per scenario scores every candidate against it. A
	// candidate the scenario sights is seeded with its own detection there:
	// that row is almost always its nearest, so the kernel's bound is tight
	// before it looks at anybody else's row. The same pass notes which slots
	// each scenario sights, for Decide's per-scenario vote.
	s.seeds = slices.Grow(s.seeds[:0], n)[:n]
	s.sims = slices.Grow(s.sims[:0], n)[:n]
	var comparisons int64
	for i := range s.scans {
		s.offs = append(s.offs, int32(len(s.present)))
		sc := &s.scans[i]
		if sc.v == nil || sc.m == nil || sc.m.Rows() == 0 {
			continue
		}
		for slot := range s.seeds {
			s.seeds[slot] = -1
		}
		for d, ord := range sc.ords {
			if slot := s.slotByOrd[ord]; slot >= 0 {
				if s.seeds[slot] < 0 {
					s.present = append(s.present, slot)
				}
				s.seeds[slot] = int32(d)
			}
		}
		feature.MaxSimBatch(s.reps, sc.m, s.seeds, s.sims)
		for slot, sim := range s.sims {
			s.prob[slot] *= sim
		}
		comparisons += int64(n) * int64(sc.m.Rows())
	}
	s.offs = append(s.offs, int32(len(s.present)))
	f.comparisons.Add(comparisons)

	// The compact copy — three small allocations — so the scratch goes back
	// to the pool now rather than when the target is decided.
	out.vids = slices.Clone(s.vids)
	out.prob = slices.Clone(s.prob)
	ints := make([]int32, 3*n+len(s.offs)+len(s.present))
	take := func(k int) []int32 {
		part := ints[:k:k]
		ints = ints[k:]
		return part
	}
	out.ords = take(n)
	copy(out.ords, s.slotOrds)
	out.order = take(n)
	copy(out.order, s.order)
	out.votes = take(n)
	out.offs = take(len(s.offs))
	copy(out.offs, s.offs)
	out.present = take(len(s.present))
	copy(out.present, s.present)
	return out, nil
}

// Decide is the cheap, ordered half of a Match: the per-scenario vote, the
// majority decision and the runner-up, over sc's candidates minus whatever
// exclude holds now. exclude must hold at least what the Score that produced
// sc was given (the Exclusion a rule-out loop keeps only grows); the result is
// then exactly Match(e, list, exclude).
//
// Why skipping is enough: the candidates Match would score under the larger
// exclusion are sc's minus the newly excluded ones — the census, the presence
// bar and every probability are per candidate (see Score). The one coupling
// is the fallback: when sc's candidates are those over the presence bar and
// exclude now holds every one of them, Match would find nobody over the bar
// and fall back to all candidates, whom sc never scored. Decide detects that
// case and scores again under exclude itself, hence the error result.
func (f *Filter) Decide(sc *Scored, exclude *Exclusion) (Result, error) {
	res := emptyResult(sc.eid, len(sc.list))
	if exclude != nil && exclude.f != f {
		return res, errors.New("vfilter: exclusion belongs to another filter")
	}
	if sc.pruned && !slices.ContainsFunc(sc.ords, func(ord int32) bool { return !exclude.has(ord) }) {
		again, err := f.Score(sc.eid, sc.list, exclude)
		if err != nil {
			return res, err
		}
		sc = again
	}
	if len(sc.vids) == 0 {
		return res, nil
	}

	// Per-scenario vote: each scenario elects the present candidate with the
	// highest trajectory probability.
	clear(sc.votes)
	voting := 0
	for i := range sc.list {
		winner := ids.NoVID
		winSlot := int32(-1)
		bestProb := -1.0
		for _, slot := range sc.present[sc.offs[i]:sc.offs[i+1]] {
			if exclude.has(sc.ords[slot]) {
				continue
			}
			if sc.prob[slot] > bestProb || (sc.prob[slot] == bestProb && sc.vids[slot] < winner) {
				winner, winSlot, bestProb = sc.vids[slot], slot, sc.prob[slot]
			}
		}
		if winner != ids.NoVID {
			res.PerScenario[i] = winner
			sc.votes[winSlot]++
			voting++
		}
	}
	if voting == 0 {
		return res, nil
	}

	// Majority decision; ties break toward the higher trajectory
	// probability, then lexicographically for determinism. An excluded slot
	// has no votes.
	best := ids.NoVID
	bestSlot := int32(-1)
	bestVotes := int32(-1)
	for _, slot := range sc.order {
		vid := sc.vids[slot]
		if sc.votes[slot] == 0 {
			continue
		}
		switch n := sc.votes[slot]; {
		case n > bestVotes:
			best, bestSlot, bestVotes = vid, slot, n
		case n == bestVotes:
			if sc.prob[slot] > sc.prob[bestSlot] ||
				(sc.prob[slot] == sc.prob[bestSlot] && vid < best) {
				best, bestSlot = vid, slot
			}
		}
	}
	res.VID = best
	res.Probability = sc.prob[bestSlot]
	res.MajorityFrac = float64(bestVotes) / float64(voting)
	res.Acceptable = res.MajorityFrac >= f.cfg.AcceptMajority

	// Runner-up diagnostics: the strongest other candidate by trajectory
	// probability.
	res.Margin = math.Inf(1)
	bestOther := -1.0
	for _, slot := range sc.order {
		vid := sc.vids[slot]
		if vid == best || exclude.has(sc.ords[slot]) {
			continue
		}
		if sc.prob[slot] > bestOther || (sc.prob[slot] == bestOther && vid < res.RunnerUp) {
			res.RunnerUp, bestOther = vid, sc.prob[slot]
		}
	}
	if bestOther > 0 {
		res.Margin = res.Probability / bestOther
	}
	return res, nil
}
