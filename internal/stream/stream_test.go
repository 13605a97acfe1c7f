package stream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/metrics"
	"evmatching/internal/scenario"
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
func testConfig(ds *dataset.Dataset, targets []ids.EID, mode core.Mode) Config {
	return Config{
		Targets:    targets,
		WindowMS:   testWindowMS,
		LatenessMS: testLatenessMS,
		Dim:        ds.Config.DescriptorDim(),
		Seed:       7,
		Mode:       mode,
		Workers:    4,
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

// replayFingerprint streams the observations through a fresh engine and
// finalizes.
func replayFingerprint(t *testing.T, cfg Config, obs []Observation) string {
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
	rep, err := e.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return rep.Fingerprint()
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
			stream := replayFingerprint(t, testConfig(ds, targets, tc.mode), obs)
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
	e, err := NewEngine(testConfig(ds, targets, core.ModeSerial))
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

// TestStreamGauges checks that the engine publishes its gauges and that the
// watermark-lag gauge reads the injected clock, not the wall clock.
func TestStreamGauges(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:5]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	reg := metrics.NewRegistry()
	clk := &fakeClock{now: time.UnixMilli(50_000)}
	cfg := testConfig(ds, targets, core.ModeSerial)
	cfg.Metrics = reg
	cfg.Clock = clk
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	half := obs[:len(obs)/2]
	for _, o := range half {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if got := reg.Get("stream_open_windows"); got < 1 {
		t.Errorf("stream_open_windows = %d, want >= 1", got)
	}
	wm, ok := e.Watermark()
	if !ok {
		t.Fatal("no watermark after ingesting half the log")
	}
	if got, want := reg.Get("stream_watermark_lag_ms"), 50_000-wm; got != want {
		t.Errorf("stream_watermark_lag_ms = %d, want %d (injected clock at 50000)", got, want)
	}
	if got := reg.Get("stream_pending_eids"); got < 0 || got > int64(len(targets)) {
		t.Errorf("stream_pending_eids = %d out of range", got)
	}

	// A wildly late observation must be dropped and counted.
	late := half[0]
	if accepted, err := e.Ingest(late); err != nil || accepted {
		t.Fatalf("late replay of first event: accepted=%t err=%v", accepted, err)
	}
	if got := reg.Get("stream_late_dropped"); got != 1 {
		t.Errorf("stream_late_dropped = %d, want 1", got)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := reg.Get("stream_resolutions_emitted"); got != int64(len(e.Resolutions())) {
		t.Errorf("stream_resolutions_emitted = %d, want %d", got, len(e.Resolutions()))
	}
	if got := reg.Get("stream_open_windows"); got != 0 {
		t.Errorf("stream_open_windows = %d after flush, want 0", got)
	}

	// The blocking-prune gauges must mirror the engine's split accounting:
	// after a full flush every sealed scenario was either probed or pruned.
	cands, pruned := e.BlockStats()
	if cands+pruned == 0 {
		t.Fatal("no sealed scenario was ever classified by the pruning probe")
	}
	if got := reg.Get("block_candidates_total"); got != cands {
		t.Errorf("block_candidates_total = %d, want %d", got, cands)
	}
	if got := reg.Get("block_pruned_total"); got != pruned {
		t.Errorf("block_pruned_total = %d, want %d", got, pruned)
	}
	if got, want := reg.Get("block_prune_ratio"), BlockPruneRatioPercent(cands, pruned); got != want {
		t.Errorf("block_prune_ratio = %d, want %d", got, want)
	}
	if r := reg.Get("block_prune_ratio"); r < 0 || r > 100 {
		t.Errorf("block_prune_ratio = %d out of [0,100]", r)
	}
}

// detKey is the test-side reference identity of a detection: the formatted
// key the bucket's set held before it hashed detections in place.
func detKey(vid ids.VID, person int, p *feature.Patch) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%d\x00%s", vid, person, p.W, p.H, p.Pix)
}

// TestDetHashCollisionKeepsBoth forces two different detections onto one hash
// chain — the first is planted under the second's hash — and requires the
// bucket to keep both, because equality is decided by comparing detections
// and the hash only finds candidates; and a repeated detection must stay an
// allocation-free lookup.
func TestDetHashCollisionKeepsBoth(t *testing.T) {
	first := scenario.Detection{VID: "V00012", TruePerson: 12, Patch: feature.Patch{W: 2, H: 2, Pix: []byte{1, 2, 3, 4}}}
	second := scenario.Detection{VID: "V00013", TruePerson: 13, Patch: feature.Patch{W: 2, H: 2, Pix: []byte{4, 3, 2, 1}}}
	b := newBucket()
	b.dets, b.refs, b.detPrev = append(b.dets, first), append(b.refs, 7), append(b.detPrev, 0)
	b.detHead[detHash(&second)] = 1
	b.addDetection(second, 8)
	b.addDetection(second, 9)
	if len(b.dets) != 2 || b.dets[0].VID != first.VID || b.dets[1].VID != second.VID {
		t.Fatalf("colliding detections held as %+v, want both, once each", b.dets)
	}
	if b.refs[0] != 7 || b.refs[1] != 8 {
		t.Errorf("refs = %v, want each detection's first position [7 8]", b.refs)
	}
	if b.detPrev[1] != 1 {
		t.Errorf("the second detection does not chain to the first: detPrev = %v", b.detPrev)
	}

	b = newBucket()
	o := Observation{Kind: KindV, VID: "V00012", Person: 12, Patch: &feature.Patch{W: 2, H: 2, Pix: []byte{1, 2, 3, 4}}}
	b.absorb(1, o)
	if allocs := testing.AllocsPerRun(100, func() { b.absorb(2, o) }); allocs != 0 {
		t.Errorf("absorbing a repeated detection allocates %v times", allocs)
	}
	if len(b.dets) != 1 {
		t.Errorf("%d detections after repeats, want 1", len(b.dets))
	}
}

// TestBucketDetectionSetExact holds the bucket's hash-then-compare detection
// set to the set of full identity keys it replaced: detections that differ in
// any one field — VID, person, patch width, height, a single pixel — are all
// kept, in arrival order, and every repeat of any of them is dropped.
func TestBucketDetectionSetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pool []Observation
	for i := 0; i < 40; i++ {
		pix := make([]byte, 16)
		rng.Read(pix)
		o := Observation{Kind: KindV, VID: ids.VIDLabel(i % 5), Person: i % 3, Patch: &feature.Patch{W: 4, H: 4, Pix: pix}}
		pool = append(pool, o)
		near := o // same pixels, the patch reshaped
		near.Patch = &feature.Patch{W: 2, H: 8, Pix: pix}
		flip := o // one pixel off
		flip.Patch = &feature.Patch{W: 4, H: 4, Pix: append([]byte(nil), pix...)}
		flip.Patch.Pix[rng.Intn(16)] ^= 1
		who := o // same patch, another person
		who.Person++
		pool = append(pool, near, flip, who)
	}
	b := newBucket()
	seen := map[string]bool{}
	var want []string
	for i := 0; i < 2000; i++ {
		o := pool[rng.Intn(len(pool))]
		b.absorb(int64(i), o)
		if key := detKey(o.VID, o.Person, o.Patch); !seen[key] {
			seen[key] = true
			want = append(want, key)
		}
	}
	if len(b.dets) != len(want) {
		t.Fatalf("%d detections held, %d distinct keys absorbed", len(b.dets), len(want))
	}
	for i, d := range b.dets {
		if got := detKey(d.VID, d.TruePerson, &d.Patch); got != want[i] {
			t.Fatalf("detection %d is %q, want %q", i, got, want[i])
		}
	}
	win, err := NewShardWindower(ShardParams{WindowMS: 1_000, Dim: 2, WorkFactor: 1}, []ShardBucket{bucketToCheckpoint(bucketKey{}, b)})
	if err != nil {
		t.Fatal(err)
	}
	restored := win.buckets[bucketKey{}]
	if !reflect.DeepEqual(restored.dets, b.dets) {
		t.Error("a restored bucket holds different detections")
	}
	restored.absorb(0, pool[0])
	if len(restored.dets) != len(b.dets) {
		t.Error("a restored bucket forgot what it had seen")
	}
}
