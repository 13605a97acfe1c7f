package shardrpc_test

import (
	"context"
	"io"
	"sync/atomic"
	"testing"

	"evmatching/internal/metrics"
	"evmatching/internal/mrtest"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

// These tests hold the by-reference shard seam to what it is for: no pixel
// crosses the wire, a reply carries positions, the journal carries pixels and
// only as long as a window is open, and the filter extracts what SS selects
// wherever the windowing ran.

// goldenReplay is the practical golden world, its log and engine config.
func goldenReplay(t *testing.T) (stream.Config, []stream.Observation) {
	t.Helper()
	ds := goldenDataset(t, true)
	_, obs, err := stream.EventsFromDataset(ds, 1_000, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	return engineConfig(ds, ds.AllEIDs()[:16]), obs
}

// TestSweepExtractsOnlyWhatItSelects replays the golden log through the
// inline Engine, an in-process Router and a Router on worker processes and
// requires the three V filters to have done the same work: the same scenarios
// looked at and the same patches extracted — and fewer than were sealed, or
// nothing was selected at all. Shards extract nothing any more, so where the
// windowing ran cannot show in the filter.
func TestSweepExtractsOnlyWhatItSelects(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := goldenReplay(t)
	sealedPatches := 0
	for _, o := range obs {
		if o.Kind == stream.KindV {
			sealedPatches++
		}
	}

	e, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := e.FilterStats()
	if want.Extractions == 0 || want.Extractions >= sealedPatches {
		t.Fatalf("the engine's sweep extracted %d of %d sealed patches; the comparison is vacuous", want.Extractions, sealedPatches)
	}
	t.Logf("sweep read %d scenarios, %d of %d patches", want.ScenariosProcessed, want.Extractions, sealedPatches)

	sup := shardrpc.NewSupervisor(workerSupervisorConfig(t))
	defer func() {
		sup.Close()
		assertWorkersReaped(t, sup)
	}()
	for name, rcfg := range map[string]stream.RouterConfig{
		"in-process": {Config: cfg, Shards: 3},
		"remote":     {Config: cfg, Shards: 2, Runner: sup},
	} {
		r, err := stream.NewRouter(rcfg)
		if err != nil {
			t.Fatalf("%s: NewRouter: %v", name, err)
		}
		for i, o := range obs {
			if _, err := r.Ingest(o); err != nil {
				t.Fatalf("%s: Ingest %d: %v", name, i, err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatalf("%s: Flush: %v", name, err)
		}
		got := r.FilterStats()
		r.Close()
		if got.ScenariosProcessed != want.ScenariosProcessed || got.Extractions != want.Extractions {
			t.Errorf("%s router's filter read %d scenarios and extracted %d patches, the engine's %d and %d",
				name, got.ScenariosProcessed, got.Extractions, want.ScenariosProcessed, want.Extractions)
		}
	}
	if st := sup.Stats(); st.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d: the remote run was not remote", st.Fallbacks)
	}
}

// TestReplyCarriesNoPixels replays the golden log through two worker
// processes and weighs both directions of the wire against the observations
// journalled: a request carries an observation's scalars and identifiers, a
// reply one journal position per detection and each bucket's EID set — no
// patch either way, so a replay costs at most 64 bytes sent and 16 received
// per observation, heartbeats and frame headers included (a patch alone is
// 640 bytes).
func TestReplyCarriesNoPixels(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := goldenReplay(t)
	want := unshardedFingerprint(t, cfg, obs)
	sup := shardrpc.NewSupervisor(workerSupervisorConfig(t))
	got := routerFingerprint(t, stream.RouterConfig{Config: cfg, Shards: 2, Runner: sup}, obs)
	st := sup.Stats()
	sup.Close()
	assertWorkersReaped(t, sup)
	if got != want {
		t.Fatal("remote replay diverged from the unsharded one")
	}
	if st.Fallbacks != 0 || st.WireBytesSent == 0 {
		t.Fatalf("Fallbacks = %d, WireBytesSent = %d: nothing crossed a wire", st.Fallbacks, st.WireBytesSent)
	}
	n := int64(len(obs))
	t.Logf("%d observations: sent %d bytes (%.1f each), received %d (%.1f each)", n,
		st.WireBytesSent, float64(st.WireBytesSent)/float64(n), st.WireBytesReceived, float64(st.WireBytesReceived)/float64(n))
	if st.WireBytesSent > 64*n {
		t.Errorf("sent %d bytes for %d observations; a request is carrying more than an observation's scalars", st.WireBytesSent, n)
	}
	if st.WireBytesReceived > 16*n {
		t.Errorf("received %d bytes for %d observations; a reply is carrying more than references", st.WireBytesReceived, n)
	}
}

// replayMeter is a ShardRunner that notes how long each replacement
// incarnation's journal replay is — the router sizes a replacement's queue to
// the replay plus the queue length a first incarnation, with nothing to
// replay, gets — and hands the run on.
type replayMeter struct {
	next     stream.ShardRunner
	queueLen atomic.Int64 // a first incarnation's queue capacity
	replayed atomic.Int64 // by incarnations after the first
}

func (m *replayMeter) RunShard(run stream.ShardRun) {
	if run.Incarnation == 1 {
		m.queueLen.Store(int64(cap(run.In)))
	} else {
		m.replayed.Add(int64(cap(run.In)) - m.queueLen.Load())
	}
	m.next.RunShard(run)
}

// TestRedispatchReplaysOnlyOpenWindows SIGKILLs a worker late in the log,
// after a dozen close rounds have folded: what its replacement is sent is the
// journal, and the journal is only the observations of windows still open —
// the gauge says so before the kill, the replay is no longer than the gauge
// plus what arrived since, a small fraction of what the shard was ever sent —
// and the run still lands on the unsharded fingerprint.
func TestRedispatchReplaysOnlyOpenWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	want := unshardedFingerprint(t, cfg, obs)
	cfg.Metrics = metrics.NewRegistry()

	var armed, fired atomic.Bool
	scfg := workerSupervisorConfig(t)
	scfg.KillPlan = func(shard, inc int, step int64) bool {
		return shard == 0 && armed.Load() && fired.CompareAndSwap(false, true)
	}
	sup := shardrpc.NewSupervisor(scfg)
	meter := &replayMeter{next: sup}
	r, err := stream.NewRouter(stream.RouterConfig{Config: cfg, Shards: 2, Runner: meter})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	cut := len(obs) * 3 / 4
	for i, o := range obs[:cut] {
		if _, err := r.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if err := r.Checkpoint(io.Discard); err != nil { // the fold barrier: every issued round folded
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := r.Ingest(obs[cut]); err != nil { // publishes the gauges
		t.Fatalf("Ingest %d: %v", cut, err)
	}
	journal := cfg.Metrics.Get("stream_shard0_journal_len")
	sent := cfg.Metrics.Get("stream_shard0_ingested")
	if journal == 0 || journal*4 > sent {
		t.Fatalf("shard 0's journal holds %d of the %d observations it was sent after the folds; it is not being compacted", journal, sent)
	}
	// Arm the kill, hand shard 0 one more observation to die on, and let the
	// redispatch happen before the rest of the log: a dead shard folds
	// nothing, so a journal left to grow behind it would measure the ingest
	// loop's head start, not the compaction.
	armed.Store(true)
	next := cut + 1
	for routed := false; !routed; next++ {
		routed = stream.ShardOf(obs[next].Cell, 2) == 0
		if _, err := r.Ingest(obs[next]); err != nil {
			t.Fatalf("Ingest %d: %v", next, err)
		}
	}
	// The supervisor reports the death at once; the router acts on it at
	// the next Ingest, before it routes anything more.
	if !waitFor(func() bool { return sup.Stats().Redispatches > 0 }) {
		t.Fatal("the killed worker's death was never reported")
	}
	for i, o := range obs[next:] {
		if _, err := r.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", next+i, err)
		}
	}
	rep, err := r.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	rst := r.Stats()
	r.Close()
	sup.Close()
	assertWorkersReaped(t, sup)
	if !fired.Load() || rst.Redispatches != 1 {
		t.Fatalf("kill fired = %v, redispatches = %d: want one replay", fired.Load(), rst.Redispatches)
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("replay over a killed worker diverged from unsharded:\n--- unsharded\n%s\n--- remote\n%s", want, got)
	}
	replayed := meter.replayed.Load()
	t.Logf("shard 0: %d observations sent before the kill, journal %d, replacement replayed %d", sent, journal, replayed)
	// The replay is the journal at the barrier plus the observations (and the
	// odd close message) ingested between the barrier and the redispatch.
	if replayed == 0 || replayed > journal+int64(next-cut) {
		t.Fatalf("the replacement was sent %d messages; the journal held %d at the barrier", replayed, journal)
	}
	if replayed*4 > sent {
		t.Fatalf("the replacement was sent %d messages of the %d the shard had seen: closed windows are being replayed", replayed, sent)
	}
}
