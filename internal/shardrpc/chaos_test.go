package shardrpc_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/mrtest"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

// killFrac mirrors the chaos package's deterministic hash stream: a uniform
// [0,1) value per (seed, shard, incarnation, step) so kill schedules are
// reproducible without any RNG state threaded through the supervisor.
func killFrac(seed int64, shard, inc int, step int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|kill|%d|%d|%d", seed, shard, inc, step)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// remoteChaosRun replays the log through a remote-sharded router under the
// given supervisor config and returns the fingerprint plus both stat sets,
// with the router closed before the supervisor and process reaping asserted.
func remoteChaosRun(t *testing.T, cfg stream.Config, obs []stream.Observation, scfg shardrpc.SupervisorConfig, shards int) (string, stream.RouterStats, shardrpc.SupervisorStats) {
	t.Helper()
	sup := shardrpc.NewSupervisor(scfg)
	r, err := stream.NewRouter(stream.RouterConfig{
		Config: cfg,
		Shards: shards,
		Runner: sup,
	})
	if err != nil {
		sup.Close()
		t.Fatalf("NewRouter: %v", err)
	}
	for i, o := range obs {
		accepted, err := r.Ingest(o)
		if err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
		if !accepted {
			t.Fatalf("Ingest %d: in-order observation dropped as late", i)
		}
	}
	rep, err := r.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	rst := r.Stats()
	r.Close()
	sst := sup.Stats()
	sup.Close()
	assertWorkersReaped(t, sup)
	return rep.Fingerprint(), rst, sst
}

// TestWorkerKillChaos is the cross-process half of the shard-kill battery:
// six seeded schedules SIGKILL worker processes mid-window (the kill lands
// between journal batches, killing whatever window state the worker holds)
// and every run must still land on the unsharded fingerprint, recovered by
// the supervisor reporting each death and the router replaying the journal.
func TestWorkerKillChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	want := unshardedFingerprint(t, cfg, obs)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			scfg := workerSupervisorConfig(t)
			scfg.KillPlan = func(shard, inc int, step int64) bool {
				// Only the first two incarnations are in the blast radius so
				// every schedule terminates; the rate targets a handful of
				// kills per run.
				return inc <= 2 && killFrac(seed, shard, inc, step) < 0.004
			}
			got, rst, sst := remoteChaosRun(t, cfg, obs, scfg, 3)
			if got != want {
				t.Fatalf("seed %d: remote replay diverged from unsharded:\n--- unsharded\n%s\n--- remote\n%s",
					seed, want, got)
			}
			if sst.Kills == 0 {
				t.Fatalf("seed %d: kill plan never fired (vacuous chaos schedule)", seed)
			}
			// Every redispatch is a death the supervisor reported, and every
			// reported death had a message the run still needed behind it.
			if rst.Redispatches == 0 || rst.Redispatches != sst.Redispatches {
				t.Fatalf("seed %d: router redispatched %d times for %d reported deaths", seed, rst.Redispatches, sst.Redispatches)
			}
			t.Logf("seed %d: kills=%d spawned=%d redispatches=%d retries=%d",
				seed, sst.Kills, sst.Spawned, rst.Redispatches, sst.Retries)
		})
	}
}

// TestWorkerKillDuringCheckpoint SIGKILLs a worker while a checkpoint's fold
// barrier is waiting on it. The barrier asks the shards nothing; what it
// waits for is every issued close round to fold. So the kill plan arms just
// before the observation that issues a round, Checkpoint follows at once, and
// whichever worker assembles the next batch dies with the round's reply still
// owed: the barrier can only complete through the replacement incarnation,
// which replays the journal — close message included — into a fresh windower.
// The image must then restore into a plain in-process router — the
// remote→in-process half of the checkpoint round trip — and resume to the
// unsharded fingerprint.
func TestWorkerKillDuringCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	want := unshardedFingerprint(t, cfg, obs)
	var armed, fired atomic.Bool
	scfg := workerSupervisorConfig(t)
	scfg.KillPlan = func(shard, inc int, step int64) bool {
		return armed.Load() && fired.CompareAndSwap(false, true)
	}
	sup := shardrpc.NewSupervisor(scfg)
	r, err := stream.NewRouter(stream.RouterConfig{Config: cfg, Shards: 3, Runner: sup})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	// The first observation past the middle of the log that closes a window.
	closesAt := func(i int) bool {
		return (obs[i].TS-cfg.LatenessMS)/cfg.WindowMS > (obs[i-1].TS-cfg.LatenessMS)/cfg.WindowMS
	}
	cut := len(obs) / 2
	for !closesAt(cut) {
		cut++
	}
	for i, o := range obs[:cut] {
		if _, err := r.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	open := r.OpenWindows()
	armed.Store(true)
	if _, err := r.Ingest(obs[cut]); err != nil {
		t.Fatalf("Ingest %d: %v", cut, err)
	}
	if r.OpenWindows() >= open {
		t.Fatalf("observation %d issued no close round; the barrier would have nothing to wait for", cut)
	}
	var buf bytes.Buffer
	if err := r.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint under worker kill: %v", err)
	}
	if !fired.Load() {
		t.Fatalf("kill plan never fired during the checkpoint barrier")
	}
	half := cut + 1
	rst := r.Stats()
	r.Close()
	sup.Close()
	assertWorkersReaped(t, sup)
	if rst.Redispatches == 0 {
		t.Fatalf("worker killed mid-barrier but no redispatch")
	}

	// Remote → in-process: restore without a runner and finish the log.
	r2, err := stream.RestoreRouter(stream.RouterConfig{Config: cfg, Shards: 3}, &buf)
	if err != nil {
		t.Fatalf("RestoreRouter: %v", err)
	}
	defer r2.Close()
	for i, o := range obs[half:] {
		if _, err := r2.Ingest(o); err != nil {
			t.Fatalf("resume Ingest %d: %v", i, err)
		}
	}
	rep, err := r2.Finalize(context.Background())
	if err != nil {
		t.Fatalf("resume Finalize: %v", err)
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("restored in-process replay diverged from unsharded:\n--- unsharded\n%s\n--- restored\n%s", want, got)
	}
}

// TestRemoteCheckpointRoundTrip is the in-process → remote half of the
// checkpoint round trip: checkpoint a plain in-process sharded run midway, restore it
// with the supervisor as runner so worker processes pick the shards up from
// the checkpoint image, and finish the log to the unsharded fingerprint.
func TestRemoteCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	want := unshardedFingerprint(t, cfg, obs)
	r, err := stream.NewRouter(stream.RouterConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	half := len(obs) / 2
	for i, o := range obs[:half] {
		if _, err := r.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := r.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	r.Close()

	sup := shardrpc.NewSupervisor(workerSupervisorConfig(t))
	r2, err := stream.RestoreRouter(stream.RouterConfig{
		Config: cfg,
		Shards: 3,
		Runner: sup,
	}, &buf)
	if err != nil {
		sup.Close()
		t.Fatalf("RestoreRouter with runner: %v", err)
	}
	for i, o := range obs[half:] {
		if _, err := r2.Ingest(o); err != nil {
			t.Fatalf("resume Ingest %d: %v", i, err)
		}
	}
	rep, err := r2.Finalize(context.Background())
	if err != nil {
		t.Fatalf("resume Finalize: %v", err)
	}
	r2.Close()
	sst := sup.Stats()
	sup.Close()
	assertWorkersReaped(t, sup)
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("restored remote replay diverged from unsharded:\n--- unsharded\n%s\n--- remote\n%s", want, got)
	}
	if sst.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d: restored run silently degraded to in-process shards", sst.Fallbacks)
	}
	if sst.Spawned < 3 {
		t.Fatalf("Spawned = %d, want >= 3 worker processes", sst.Spawned)
	}
}

// drillWorkload is the world `evgen -persons 60 -density 8 -windows 12
// -practical -eid-miss 0.08 -vid-miss 0.04 -seed 3 -events …` writes, and the
// engine config an `evstream -log …` replay of it runs: every EID the
// log sights is a target.
func drillWorkload(t *testing.T) (stream.Config, []stream.Observation) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.NumPersons = 60
	dcfg.Density = 8
	dcfg.NumWindows = 12
	dcfg.Seed = 3
	dcfg = dcfg.Practical()
	dcfg.EIDMissingRate = 0.08
	dcfg.VIDMissingRate = 0.04
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	_, obs, err := stream.EventsFromDataset(ds, 1_000, 3)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	sighted := make(map[ids.EID]bool)
	for _, o := range obs {
		if o.Kind == stream.KindE {
			sighted[o.EID] = true
		}
	}
	return engineConfig(ds, ids.SortedEIDKeys(sighted)), obs
}

// TestScriptedWorkerKills is the scripted kill drill over real worker
// processes: three shards, shard 0's first worker SIGKILLed before its 40th
// message and shard 2's before its 90th. The replay must land on the
// unsharded fingerprint through exactly those two deaths, each reported and
// redispatched once, with no shard falling back in-process; and, kills and
// journal replays included, neither direction of the wire may carry a pixel:
// 0 < bytes received < bytes sent < 64 bytes per logged observation (a patch
// alone is 640 bytes).
func TestScriptedWorkerKills(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := drillWorkload(t)
	want := unshardedFingerprint(t, cfg, obs)
	scfg := workerSupervisorConfig(t)
	scfg.KillPlan = func(shard, inc int, step int64) bool {
		return inc == 1 && (shard == 0 && step == 40 || shard == 2 && step == 90)
	}
	got, rst, sst := remoteChaosRun(t, cfg, obs, scfg, 3)
	if got != want {
		t.Fatalf("remote replay diverged from unsharded:\n--- unsharded\n%s\n--- remote\n%s", want, got)
	}
	if sst.Kills != 2 || sst.Redispatches != 2 || rst.Redispatches != 2 || sst.Fallbacks != 0 {
		t.Errorf("kills=%d redispatches=%d (router %d) fallbacks=%d; want 2, 2, 2 and 0",
			sst.Kills, sst.Redispatches, rst.Redispatches, sst.Fallbacks)
	}
	n := int64(len(obs))
	t.Logf("%d observations: sent %d bytes, received %d", n, sst.WireBytesSent, sst.WireBytesReceived)
	if !(0 < sst.WireBytesReceived && sst.WireBytesReceived < sst.WireBytesSent && sst.WireBytesSent < 64*n) {
		t.Errorf("wire received %d and sent %d bytes for %d observations; want 0 < received < sent < %d",
			sst.WireBytesReceived, sst.WireBytesSent, n, 64*n)
	}
}
