package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

const (
	testWindowMS   = 1_000
	testLatenessMS = 250
)

// testDataset mirrors core's golden conformance datasets (60 persons, 16
// windows; the practical variant adds noise, vague zones, and missing data).
func testDataset(t *testing.T, practical bool) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 60
	cfg.Density = 8
	cfg.NumWindows = 16
	if practical {
		cfg = cfg.Practical()
		cfg.EIDMissingRate = 0.1
		cfg.VIDMissingRate = 0.05
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

// testConfig is the engine configuration the equivalence tests share.
func testConfig(ds *dataset.Dataset, targets []ids.EID) Config {
	return Config{
		Targets:    targets,
		WindowMS:   testWindowMS,
		LatenessMS: testLatenessMS,
		Dim:        ds.Config.DescriptorDim(),
	}
}

// batchFingerprint runs the batch SS reference under ScanInOrder — the order
// a stream consumer observes windows in.
func batchFingerprint(t *testing.T, ds *dataset.Dataset, targets []ids.EID, mode core.Mode) string {
	t.Helper()
	m, err := core.New(ds, core.Options{
		Algorithm: core.AlgorithmSS,
		Mode:      mode,
		Workers:   4,
		Seed:      7,
		ScanOrder: core.ScanInOrder,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatalf("batch Match: %v", err)
	}
	return rep.Fingerprint()
}

// replayEngine streams the observations through a fresh engine, requiring
// every in-order observation accepted.
func replayEngine(t *testing.T, cfg Config, obs []Observation) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, o := range obs {
		accepted, err := e.Ingest(o)
		if err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
		if !accepted {
			t.Fatalf("Ingest %d: in-order observation dropped as late", i)
		}
	}
	return e
}

// replayFingerprint streams the observations through a fresh engine and
// finalizes.
func replayFingerprint(t *testing.T, cfg Config, obs []Observation) string {
	t.Helper()
	return finalFingerprint(t, replayEngine(t, cfg, obs), core.ModeSerial)
}

// finalFingerprint finalizes a replayed processor. Finalize runs the serial
// reference; under any other mode the fingerprint is that mode's batch run
// over the store the replay built, the same bytes the batch run over the
// original dataset gives.
func finalFingerprint(t *testing.T, p Processor, mode core.Mode) string {
	t.Helper()
	rep, err := p.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if mode == core.ModeSerial {
		return rep.Fingerprint()
	}
	e, ok := p.(*Engine)
	if !ok {
		e = p.(*Router).merged
	}
	replayed := &dataset.Dataset{Config: dataset.Config{FeatureDim: e.cfg.Dim}, Store: e.store}
	return batchFingerprint(t, replayed, e.cfg.Targets, mode)
}

// TestStreamGoldenEquivalence pins the subsystem's headline invariant:
// replaying a complete observation log through the stream path produces a
// report whose Fingerprint is byte-identical to the batch SS run over the
// original dataset. The sha256 pins guard both paths at once — a mismatch
// means match results changed, not just speed.
func TestStreamGoldenEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		practical bool
		mode      core.Mode
		want      string
	}{
		{"ideal-serial", false, core.ModeSerial,
			"f9148d9c52037f0eed05a463f872bd009795fff2bc1b388ee2550aa68525ec1e"},
		{"practical-serial", true, core.ModeSerial,
			"25e495c8abf1c04522dc5e33d326b83a9ddcea4a3185c1dc5ce641eeafe688d5"},
		{"ideal-parallel", false, core.ModeParallel,
			"4cfed9fb5feb849ccec4aec8aa93195ff0137603e4a78cd85aa8c9f484794416"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := testDataset(t, tc.practical)
			targets := ds.AllEIDs()[:20]
			_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
			if err != nil {
				t.Fatalf("EventsFromDataset: %v", err)
			}
			batch := batchFingerprint(t, ds, targets, tc.mode)
			stream := finalFingerprint(t, replayEngine(t, testConfig(ds, targets), obs), tc.mode)
			if stream != batch {
				t.Fatalf("stream fingerprint diverges from batch:\n--- batch\n%s\n--- stream\n%s", batch, stream)
			}
			sum := sha256.Sum256([]byte(stream))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("fingerprint hash = %s, want %s (match results changed)", got, tc.want)
			}
		})
	}
}

// TestStreamEmitsResolutions checks the incremental V stage: a complete
// replay must emit one resolution per target, with monotonically increasing
// sequence numbers, confidence fields populated, and no acceptable VID
// claimed by two targets.
func TestStreamEmitsResolutions(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:20]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	e, err := NewEngine(testConfig(ds, targets))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	backlog, ch, cancel := e.Subscribe()
	defer cancel()
	if len(backlog) != 0 {
		t.Fatalf("fresh engine has backlog of %d", len(backlog))
	}
	for _, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := e.Resolutions()
	if len(got) != len(targets) {
		t.Fatalf("emitted %d resolutions for %d targets", len(got), len(targets))
	}
	correct := 0
	claimed := map[ids.VID]ids.EID{}
	for i, r := range got {
		if r.Seq != i+1 {
			t.Errorf("resolution %d has seq %d", i, r.Seq)
		}
		// Rule-out across targets: an accepted VID is out of every later match.
		if prev, dup := claimed[r.VID]; dup && r.VID != ids.NoVID && r.Acceptable {
			t.Errorf("VID %s claimed by both %s and %s", r.VID, prev, r.EID)
		} else if r.Acceptable {
			claimed[r.VID] = r.EID
		}
		if r.VID == ids.NoVID {
			t.Errorf("resolution for %s carries no VID", r.EID)
			continue
		}
		if r.Probability <= 0 || r.MajorityFrac <= 0 {
			t.Errorf("resolution for %s has empty confidence: %+v", r.EID, r)
		}
		if r.VID == ds.TruthVID(r.EID) {
			correct++
		}
	}
	// The ideal setting matches essentially perfectly in batch mode; early
	// emission sees fewer windows, so allow a small slack.
	if correct < len(targets)*8/10 {
		t.Errorf("only %d/%d early resolutions correct", correct, len(targets))
	}
	// The subscription must have received every emission.
	for i := 0; i < len(got); i++ {
		select {
		case r := <-ch:
			if r.Seq != i+1 {
				t.Fatalf("subscriber got seq %d at position %d", r.Seq, i)
			}
		default:
			t.Fatalf("subscriber starved after %d resolutions", i)
		}
	}
}

// fakeClock is a settable Clock for gauge tests.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time { return f.now }

// TestStreamGauges checks the engine's gauge snapshot, and that the
// watermark-lag gauge reads the injected clock, not the wall clock.
func TestStreamGauges(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:5]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	clk := &fakeClock{now: time.UnixMilli(50_000)}
	cfg := testConfig(ds, targets)
	cfg.Clock = clk
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if g := e.Gauges(); len(g) != 11 || g["stream_watermark_lag_ms"] != 0 || g["stream_pending_eids"] != int64(len(targets)) {
		t.Errorf("fresh engine gauges = %v, want 11 names, no lag and every target pending", g)
	}
	half := obs[:len(obs)/2]
	for _, o := range half {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	g := e.Gauges()
	if got := g["stream_open_windows"]; got < 1 {
		t.Errorf("stream_open_windows = %d, want >= 1", got)
	}
	wm, ok := e.Watermark()
	if !ok {
		t.Fatal("no watermark after ingesting half the log")
	}
	if got, want := g["stream_watermark_lag_ms"], 50_000-wm; got != want {
		t.Errorf("stream_watermark_lag_ms = %d, want %d (injected clock at 50000)", got, want)
	}
	if got := g["stream_pending_eids"]; got < 0 || got > int64(len(targets)) {
		t.Errorf("stream_pending_eids = %d out of range", got)
	}

	// A redelivered detection waits in its open bucket, counted as held, until
	// the fold drops it and counts that.
	held := g["stream_open_detections"]
	if held < 1 {
		t.Errorf("stream_open_detections = %d, want >= 1", held)
	}
	var lastV Observation
	for _, o := range half {
		if o.Kind == KindV {
			lastV = o
		}
	}
	if accepted, err := e.Ingest(lastV); err != nil || !accepted {
		t.Fatalf("redelivery of an open window's detection: accepted=%t err=%v", accepted, err)
	}
	g = e.Gauges()
	if got := g["stream_open_detections"]; got != held+1 {
		t.Errorf("stream_open_detections = %d after a redelivery, want %d", got, held+1)
	}
	if got := g["stream_duplicate_detections"]; got != 0 {
		t.Errorf("stream_duplicate_detections = %d before the window folded, want 0", got)
	}

	// A wildly late observation must be dropped and counted.
	late := half[0]
	if accepted, err := e.Ingest(late); err != nil || accepted {
		t.Fatalf("late replay of first event: accepted=%t err=%v", accepted, err)
	}
	if got := e.Gauges()["stream_late_dropped"]; got != 1 {
		t.Errorf("stream_late_dropped = %d, want 1", got)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	g = e.Gauges()
	if got := g["stream_resolutions_emitted"]; got != int64(len(e.Resolutions())) {
		t.Errorf("stream_resolutions_emitted = %d, want %d", got, len(e.Resolutions()))
	}
	if got := g["stream_open_windows"]; got != 0 {
		t.Errorf("stream_open_windows = %d after flush, want 0", got)
	}
	if open, dup := g["stream_open_detections"], g["stream_duplicate_detections"]; open != 0 || dup != 1 {
		t.Errorf("after flush stream_open_detections = %d and stream_duplicate_detections = %d, want 0 and 1", open, dup)
	}

	// The blocking-prune gauges mirror the engine's split accounting: after
	// a full flush every sealed scenario was either probed or pruned, and
	// the split recorded only probed ones.
	cands, pruned := g["block_candidates_total"], g["block_pruned_total"]
	if cands+pruned == 0 {
		t.Fatal("no sealed scenario was ever classified by the pruning probe")
	}
	if rec := int64(len(e.part.Recorded())); cands < rec {
		t.Errorf("block_candidates_total = %d below the %d scenarios the split recorded", cands, rec)
	}
	if got, want := g["block_prune_ratio"], BlockPruneRatioPercent(cands, pruned); got != want {
		t.Errorf("block_prune_ratio = %d, want %d", got, want)
	}
	if r := g["block_prune_ratio"]; r < 0 || r > 100 {
		t.Errorf("block_prune_ratio = %d out of [0,100]", r)
	}
}

// TestWatermarkLagGrowsWhileIdle: the lag gauge is read at the call, so it
// tracks the clock while no observation arrives — a stalled feed shows as a
// growing lag, not as the lag of its last ingest.
func TestWatermarkLagGrowsWhileIdle(t *testing.T) {
	ds := testDataset(t, false)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	clk := &fakeClock{now: time.UnixMilli(50_000)}
	cfg := testConfig(ds, ds.AllEIDs()[:5])
	cfg.Clock = clk
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, o := range obs[:len(obs)/2] {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	before := e.Gauges()["stream_watermark_lag_ms"]
	const idle = 7_000
	clk.now = clk.now.Add(idle * time.Millisecond)
	if got := e.Gauges()["stream_watermark_lag_ms"]; got != before+idle {
		t.Errorf("stream_watermark_lag_ms = %d after %d idle ms, want %d", got, idle, before+idle)
	}
}

// TestGaugesDuringIngest reads the gauges from another goroutine while the
// log is ingested, as /metricsz does: under -race this is the check that the
// snapshot is taken under the engine's lock; the emitted count it sees never
// goes back.
func TestGaugesDuringIngest(t *testing.T) {
	ds := testDataset(t, false)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	e, err := NewEngine(testConfig(ds, ds.AllEIDs()[:8]))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, o := range obs {
			if _, err := e.Ingest(o); err != nil {
				t.Errorf("Ingest: %v", err)
				return
			}
		}
	}()
	var last int64
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		got := e.Gauges()["stream_resolutions_emitted"]
		if got < last {
			t.Fatalf("stream_resolutions_emitted went from %d back to %d", last, got)
		}
		last = got
	}
}

// TestBroadcastCountsDrops: a subscriber that never reads holds a channel's
// worth of resolutions; every broadcast past that is dropped and counted, and
// the engine's gauges report the count.
func TestBroadcastCountsDrops(t *testing.T) {
	const k = 5
	e, err := NewEngine(Config{Targets: []ids.EID{"e-1"}, WindowMS: testWindowMS, Dim: 2})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, ch, cancel := e.Subscribe()
	defer cancel()
	e.mu.Lock()
	for i := 0; i < cap(ch)+k; i++ {
		e.broadcast(Resolution{Seq: i + 1})
	}
	e.mu.Unlock()
	if got := e.Gauges()["stream_resolutions_dropped"]; got != k {
		t.Errorf("engine stream_resolutions_dropped = %d, want %d", got, k)
	}
}

// TestSubscriberRunsBetweenDecisions: on one P, a subscriber takes each
// resolution as the sweep decides it, not in a burst when the sweep ends —
// broadcast yields the P after each delivery, so no more than a couple of
// resolutions ever wait in the channel when the subscriber receives. Without
// the yield the subscriber runs only at a preemption or a sweep's end, and
// finds a sweep's worth (hundreds) waiting. Above one P a GC worker can take
// the P before the subscriber, so the bound is asserted at one P alone.
func TestSubscriberRunsBetweenDecisions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 300
	cfg.Density = 30
	cfg.NumWindows = 12
	cfg.Seed = 11
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	e, err := NewEngine(testConfig(ds, ds.AllEIDs()))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, ch, cancel := e.Subscribe()
	var (
		got     []int
		backlog int // most resolutions left in the channel at a receive
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		for r := range ch {
			got = append(got, r.Seq)
			backlog = max(backlog, len(ch))
		}
	}()
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			cancel()
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if err := e.Flush(); err != nil {
		cancel()
		t.Fatalf("Flush: %v", err)
	}
	cancel()
	<-done
	want := e.Resolutions()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("subscriber received %d resolutions, engine emitted %d", len(got), len(want))
	}
	for i, r := range want {
		if got[i] != r.Seq {
			t.Fatalf("subscriber's resolution %d has seq %d, want %d", i, got[i], r.Seq)
		}
	}
	t.Logf("%d resolutions, largest backlog %d", len(got), backlog)
	if backlog > 2 {
		t.Errorf("largest backlog at a receive = %d, want at most 2: the subscriber waited for the sweep", backlog)
	}
}

// nearIdenticalPool is a pool of V observations that differ from one another
// in exactly one thing — VID, person, patch shape over the same bytes, or a
// single pixel — the cases a detection's identity and order must tell apart.
func nearIdenticalPool(rng *rand.Rand) []Observation {
	var pool []Observation
	for i := 0; i < 40; i++ {
		pix := make([]byte, 16)
		rng.Read(pix)
		o := Observation{Kind: KindV, VID: ids.VIDLabel(i % 5), Person: i % 3, Patch: &feature.Patch{W: 4, H: 4, Pix: pix}}
		near := o // same pixels, the patch reshaped
		near.Patch = &feature.Patch{W: 2, H: 8, Pix: pix}
		flip := o // one pixel off
		flip.Patch = &feature.Patch{W: 4, H: 4, Pix: append([]byte(nil), pix...)}
		flip.Patch.Pix[rng.Intn(16)] ^= 1
		who := o // same patch, another person
		who.Person++
		pool = append(pool, o, near, flip, who)
	}
	return pool
}

// TestCanonicalDetsExact holds the fold to the set semantics the bucket's
// hash set used to provide, where they live now: 2000 draws from a pool of
// near-identical detections, folded through applySealedLocked, are stored as
// the sorted set of their distinct full identities — every repeat dropped and
// counted, whatever differs in any one field kept — without the closure's own
// slice being written; and detections already in that form are adopted as
// they are, with no copy.
func TestCanonicalDetsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := nearIdenticalPool(rng)
	type identity struct {
		vid    ids.VID
		person int
		pix    string
		w, h   int
	}
	identityOf := func(d scenario.Detection) identity {
		return identity{d.VID, d.TruePerson, string(d.Patch.Pix), d.Patch.W, d.Patch.H}
	}
	var drawn []scenario.Detection
	distinct := map[identity]bool{}
	for i := 0; i < 2000; i++ {
		o := pool[rng.Intn(len(pool))]
		d := scenario.Detection{VID: o.VID, TruePerson: o.Person, Patch: *o.Patch}
		drawn = append(drawn, d)
		distinct[identityOf(d)] = true
	}
	var want []identity
	for id := range distinct {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		switch {
		case a.vid != b.vid:
			return a.vid < b.vid
		case a.person != b.person:
			return a.person < b.person
		case a.pix != b.pix:
			return a.pix < b.pix
		case a.w != b.w:
			return a.w < b.w
		}
		return a.h < b.h
	})

	e, err := NewEngine(Config{Targets: []ids.EID{"e-1"}, WindowMS: 1_000, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]scenario.Detection(nil), drawn...)
	id, err := e.applySealedLocked(&ShardSealed{Window: 0, Cell: 3, Dets: drawn})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drawn, before) {
		t.Error("the fold wrote to the closure's detections")
	}
	stored := e.store.V(id).Detections
	if len(stored) != len(want) {
		t.Fatalf("%d detections stored, %d distinct identities folded", len(stored), len(want))
	}
	for i, d := range stored {
		if got := identityOf(d); got != want[i] {
			t.Fatalf("stored detection %d is %+v, want %+v", i, got, want[i])
		}
	}
	if got, dropped := e.duplicates, int64(len(drawn)-len(want)); got != dropped {
		t.Errorf("the fold counted %d repeats, dropped %d", got, dropped)
	}

	// Canonical input — what a generated log in store order and every
	// checkpointed scenario is — comes back as the same slice, unallocated.
	again, dropped := canonicalDets(stored)
	if dropped != 0 || &again[0] != &stored[0] || len(again) != len(stored) {
		t.Errorf("canonical input was not returned as it is (%d dropped)", dropped)
	}
	if allocs := testing.AllocsPerRun(100, func() { canonicalDets(stored) }); allocs != 0 {
		t.Errorf("canonicalDets of canonical input allocates %v times", allocs)
	}
	if out, dropped := canonicalDets(nil); out != nil || dropped != 0 {
		t.Errorf("canonicalDets(nil) = %v, %d", out, dropped)
	}
}

// TestCanonicalEIDsExact holds a bucket's E side to the set semantics the
// scenario needs: for every order seven E observations of one bucket can
// arrive in — a repeat, a vague one repeated, and an EID seen vague and
// inclusive, in both orders — the sealed closure's EIDs, the bucket's image
// and the closure's wire bytes are the same, ascending, each EID once and
// inclusive beating vague, and the bucket's own list is never written.
// Input already in that form comes back as it is, uncopied.
func TestCanonicalEIDsExact(t *testing.T) {
	inc := func(e ids.EID) scenario.EIDAttr { return scenario.EIDAttr{EID: e, Attr: scenario.AttrInclusive} }
	vag := func(e ids.EID) scenario.EIDAttr { return scenario.EIDAttr{EID: e, Attr: scenario.AttrVague} }
	arrivals := []scenario.EIDAttr{inc("c"), vag("b"), vag("d"), inc("a"), inc("c"), inc("b"), vag("d")}
	want := []scenario.EIDAttr{inc("a"), inc("b"), inc("c"), vag("d")}
	var wantWire []byte
	var permute func(k int)
	permutations := 0
	permute = func(k int) {
		if k < len(arrivals) {
			for i := k; i < len(arrivals); i++ {
				arrivals[k], arrivals[i] = arrivals[i], arrivals[k]
				permute(k + 1)
				arrivals[k], arrivals[i] = arrivals[i], arrivals[k]
			}
			return
		}
		permutations++
		w, err := NewShardWindower(ShardParams{WindowMS: testWindowMS, Dim: 2, WorkFactor: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ea := range arrivals {
			w.absorb(0, Observation{TS: 5, Kind: KindE, Cell: 3, EID: ea.EID, Attr: ea.Attr})
		}
		img := w.snapshot()
		if b := w.buckets[bucketKey{Window: 0, Cell: 3}]; !slices.Equal(b.eids, arrivals) {
			t.Fatalf("imaging wrote the bucket's list: %v, arrived %v", b.eids, arrivals)
		}
		sealed := w.seal(1)
		if len(img) != 1 || len(sealed) != 1 || !slices.Equal(img[0].EIDs, want) || !slices.Equal(sealed[0].EIDs, want) {
			t.Fatalf("arrivals %v: image %v, sealed %v, want %v", arrivals, img, sealed, want)
		}
		got := appendSealedRefs(nil, &sealed[0])
		if wantWire == nil {
			wantWire = got
		} else if !bytes.Equal(got, wantWire) {
			t.Fatalf("arrivals %v: wire bytes differ from the first order's", arrivals)
		}
	}
	permute(0)
	if permutations != 5040 {
		t.Fatalf("%d orders tried, want 7!", permutations)
	}
	var back ShardSealed
	r := wire.NewReader(wantWire)
	if readSealedRefs(r, &back); r.Err() != nil || !slices.Equal(back.EIDs, want) {
		t.Fatalf("the wire form decodes to %v (%v), want %v", back.EIDs, r.Err(), want)
	}

	// Canonical input — a log in store order, every checkpointed bucket — is
	// returned as the same slice, unallocated.
	if got := canonicalEIDs(want); &got[0] != &want[0] || len(got) != len(want) {
		t.Error("canonical input was not returned as it is")
	}
	if allocs := testing.AllocsPerRun(100, func() { canonicalEIDs(want) }); allocs != 0 {
		t.Errorf("canonicalEIDs of canonical input allocates %v times", allocs)
	}
	if got := canonicalEIDs(nil); got != nil {
		t.Errorf("canonicalEIDs(nil) = %v", got)
	}
}

// TestWindowerNeverReadsPixels steps four windowers through one message
// sequence — redeliveries included — that differs only in what the V
// observations carry for a patch: the real pixels, nothing, an empty patch,
// and bytes that contradict their shape. All four must seal the same
// closures, position for position, in arrival order: a windower that looked
// at a pixel to order, deduplicate or validate would tell them apart.
func TestWindowerNeverReadsPixels(t *testing.T) {
	ds := testDataset(t, true)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	obs = obs[:len(obs)/3]
	patches := map[string]func(*feature.Patch) *feature.Patch{
		"real":      func(p *feature.Patch) *feature.Patch { return p },
		"nil":       func(*feature.Patch) *feature.Patch { return nil },
		"empty":     func(*feature.Patch) *feature.Patch { return &feature.Patch{} },
		"misshapen": func(p *feature.Patch) *feature.Patch { return &feature.Patch{W: 3, H: 5, Pix: p.Pix[:4]} },
	}
	run := func(patch func(*feature.Patch) *feature.Patch) []ShardOut {
		w, err := NewShardWindower(ShardParams{WindowMS: testWindowMS, Dim: 2, WorkFactor: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var outs []ShardOut
		step := func(m ShardMsg) {
			out, err := w.Step(m)
			if err != nil {
				t.Fatalf("Step %+v: %v", m, err)
			}
			if out != nil {
				for i := range out.Sealed {
					s := &out.Sealed[i]
					s.Dets = nil
				}
				outs = append(outs, *out)
			}
		}
		pos, round := int64(0), 0
		for i, o := range obs {
			if o.Kind == KindV {
				o.Patch = patch(o.Patch)
			}
			deliveries := 1
			if i%3 == 2 { // every third observation is delivered twice
				deliveries = 2
			}
			for ; deliveries > 0; deliveries-- {
				pos++
				step(ShardMsg{Pos: pos, Kind: ShardMsgObs, Obs: o})
			}
			if i%400 == 399 {
				round++
				step(ShardMsg{Kind: ShardMsgClose, Round: round, Target: int(o.TS/testWindowMS) - 1})
			}
		}
		step(ShardMsg{Kind: ShardMsgClose, Round: round + 1, Target: 1 << 30})
		if w.openDets != 0 || len(w.buckets) != 0 {
			t.Fatalf("%d detections in %d buckets still open after the last close", w.openDets, len(w.buckets))
		}
		return outs
	}
	want := run(patches["real"])
	refs := 0
	for _, out := range want {
		for _, s := range out.Sealed {
			refs += len(s.Refs)
			if !sort.SliceIsSorted(s.Refs, func(i, j int) bool { return s.Refs[i] < s.Refs[j] }) {
				t.Fatalf("window %d cell %d sealed positions out of arrival order: %v", s.Window, s.Cell, s.Refs)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no detection was sealed; the comparison is vacuous")
	}
	for name, patch := range patches {
		if got := run(patch); !reflect.DeepEqual(got, want) {
			t.Errorf("%s patches: the windower sealed different closures than with the real pixels", name)
		}
	}
}

// TestHostilePatchRefusedAtIngest pins that a V observation whose patch is
// no W×H block — negative dimensions, or a W·H that overflows to the pixel
// count, both of which equal len(Pix) in wrapping arithmetic — is refused at
// Ingest with ErrBadObservation rather than poisoning the engine: the replay
// around it still resolves in later windows and finalizes to the clean
// replay's fingerprint.
func TestHostilePatchRefusedAtIngest(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:20]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	clean := replayFingerprint(t, cfg, obs)
	at := sort.Search(len(obs), func(i int) bool { return obs[i].TS >= testWindowMS })
	for _, c := range []struct {
		name  string
		patch feature.Patch
	}{
		{"negative-dims", feature.Patch{W: -16, H: -40, Pix: make([]byte, 640)}},
		{"overflowing-dims", feature.Patch{W: 128, H: int(^uint(0)>>7) + 6, Pix: make([]byte, 640)}}, // 128·H wraps to 640
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := Observation{TS: obs[at].TS, Kind: KindV, Cell: obs[at].Cell, VID: "V-hostile", Patch: &c.patch}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for i, o := range obs {
				if i == at {
					if _, err := e.Ingest(bad); !errors.Is(err, ErrBadObservation) {
						t.Fatalf("Ingest(hostile patch) = %v, want ErrBadObservation", err)
					}
				}
				if _, err := e.Ingest(o); err != nil {
					t.Fatalf("Ingest %d after the hostile line: %v", i, err)
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			later := 0
			for _, r := range e.Resolutions() {
				if int64(r.Window) > bad.TS/testWindowMS {
					later++
				}
			}
			if later == 0 {
				t.Fatalf("no resolution after window %d, where the hostile line was refused", bad.TS/testWindowMS)
			}
			if got := finalFingerprint(t, e, core.ModeSerial); got != clean {
				t.Fatalf("fingerprint after a refused hostile line diverges from the clean replay:\n--- clean\n%s\n--- got\n%s", clean, got)
			}
		})
	}
}

// TestSweepKeepsUnlistedTargetsPending drives the pending set the resolve
// hook feeds: c becomes a singleton at window 1, when b splits away, but no
// closed scenario holds c, so it waits — across a window that still holds
// nothing of it and across a checkpoint restore — and resolves in the sweep
// after the window that first holds it closes.
func TestSweepKeepsUnlistedTargetsPending(t *testing.T) {
	e := func(ts int64, cell int, eid ids.EID) Observation {
		return Observation{TS: ts, Kind: KindE, Cell: geo.CellID(cell), EID: eid, Attr: scenario.AttrInclusive}
	}
	head := []Observation{e(100, 0, "a"), e(1100, 0, "b"), e(2100, 5, "z"), e(3100, 0, "c"), e(4100, 5, "z")}
	cfg := Config{Targets: []ids.EID{"c", "b", "a"}, WindowMS: testWindowMS, LatenessMS: testLatenessMS, Dim: 8}
	eng := replayEngine(t, cfg, head)
	got := eng.Resolutions()
	if len(got) != 2 || got[0].EID != "a" || got[0].Window != 0 || got[1].EID != "b" || got[1].Window != 1 {
		t.Fatalf("resolutions before the flush: %+v", got)
	}
	if pending := eng.Gauges()["stream_pending_eids"]; pending != 1 {
		t.Errorf("stream_pending_eids = %d, want 1 (c)", pending)
	}
	var ck bytes.Buffer
	if err := eng.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, &ck)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Engine{"live": eng, "restored": restored} {
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		got := p.Resolutions()
		if len(got) != 3 || got[2].EID != "c" || got[2].Seq != 3 || got[2].Window != 4 {
			t.Errorf("%s: resolutions after the flush: %+v", name, got)
		}
	}
}

// TestPendingGaugeCountsDistinctTargets repeats a target in the config: the
// engine matches each distinct EID once, so once both have resolved nothing
// is pending.
func TestPendingGaugeCountsDistinctTargets(t *testing.T) {
	e := func(ts int64, cell int, eid ids.EID) Observation {
		return Observation{TS: ts, Kind: KindE, Cell: geo.CellID(cell), EID: eid, Attr: scenario.AttrInclusive}
	}
	cfg := Config{Targets: []ids.EID{"a", "a", "b"}, WindowMS: testWindowMS, LatenessMS: testLatenessMS, Dim: 8}
	if pending := replayEngine(t, cfg, nil).Gauges()["stream_pending_eids"]; pending != 2 {
		t.Errorf("fresh stream_pending_eids = %d, want 2 (a, b)", pending)
	}
	eng := replayEngine(t, cfg, []Observation{e(100, 0, "a"), e(1100, 0, "b"), e(2100, 5, "z")})
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Resolutions(); len(got) != 2 {
		t.Fatalf("resolutions after the flush: %+v, want a and b", got)
	}
	if pending := eng.Gauges()["stream_pending_eids"]; pending != 0 {
		t.Errorf("stream_pending_eids = %d after both targets resolved, want 0", pending)
	}
}
