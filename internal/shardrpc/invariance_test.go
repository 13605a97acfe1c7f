package shardrpc_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"evmatching/internal/mrtest"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

// goldenCases are the serial sha256 pins the stream package freezes in
// TestShardInvarianceGolden. The remote path must land on the identical
// hashes: remote ≡ in-process ≡ unsharded ≡ batch, bit for bit.
var goldenCases = []struct {
	name      string
	practical bool
	want      string
}{
	{"ideal-serial", false,
		"3e0a02707e629de5dad8e6a5a6f135bf698c7be0f8fc18583b2005894200fe71"},
	{"practical-serial", true,
		"e03713546448faa41e04d139ef8304ead2c11fa67e97d0186e7ab09e512f5b2e"},
}

// inProcessRunner drives the shard seam without processes: a ShardRunner
// that hosts every incarnation via stream.RunShardInProcess — what a router
// without a Runner does itself — so the public seam is exercised without the
// rpc and process machinery.
type inProcessRunner struct{}

func (inProcessRunner) RunShard(run stream.ShardRun) { stream.RunShardInProcess(run) }

// TestSeamRunnerInvarianceGolden pins the shard seam alone: a router driven
// through the public ShardRunner interface (wire types, ShardWindower) but
// hosted in-process must reproduce the golden hashes at every shard count.
func TestSeamRunnerInvarianceGolden(t *testing.T) {
	mrtest.CheckGoroutines(t)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			ds := goldenDataset(t, tc.practical)
			targets := ds.AllEIDs()[:16]
			_, obs, err := stream.EventsFromDataset(ds, 1_000, 7)
			if err != nil {
				t.Fatalf("EventsFromDataset: %v", err)
			}
			cfg := engineConfig(ds, targets)
			want := unshardedFingerprint(t, cfg, obs)
			sum := sha256.Sum256([]byte(want))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("unsharded fingerprint hash = %s, want %s", got, tc.want)
			}
			for _, shards := range []int{1, 2, 3, 8} {
				got := routerFingerprint(t, stream.RouterConfig{
					Config: cfg,
					Shards: shards,
					Runner: inProcessRunner{},
				}, obs)
				if got != want {
					t.Fatalf("%d-shard seam-runner replay diverged from unsharded:\n--- unsharded\n%s\n--- seam\n%s",
						shards, want, got)
				}
			}
		})
	}
}

// TestRemoteShardInvarianceGolden is the tentpole invariant: shard windowers
// hosted in real worker processes over net/rpc reproduce the exact golden
// hashes of the in-process, unsharded, and batch paths.
func TestRemoteShardInvarianceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	mrtest.CheckGoroutines(t)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			ds := goldenDataset(t, tc.practical)
			targets := ds.AllEIDs()[:16]
			_, obs, err := stream.EventsFromDataset(ds, 1_000, 7)
			if err != nil {
				t.Fatalf("EventsFromDataset: %v", err)
			}
			cfg := engineConfig(ds, targets)
			batch := batchFingerprint(t, ds, targets)
			want := unshardedFingerprint(t, cfg, obs)
			if want != batch {
				t.Fatalf("unsharded replay diverged from batch:\n--- batch\n%s\n--- stream\n%s", batch, want)
			}
			sum := sha256.Sum256([]byte(want))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("fingerprint hash = %s, want %s (match results changed)", got, tc.want)
			}
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("workers-%d", shards), func(t *testing.T) {
					sup := shardrpc.NewSupervisor(workerSupervisorConfig(t))
					got := routerFingerprint(t, stream.RouterConfig{
						Config: cfg,
						Shards: shards,
						Runner: sup,
					}, obs)
					sup.Close()
					st := sup.Stats()
					assertWorkersReaped(t, sup)
					if got != want {
						t.Fatalf("%d-worker remote replay diverged from unsharded:\n--- unsharded\n%s\n--- remote\n%s",
							shards, want, got)
					}
					if st.Fallbacks != 0 {
						t.Fatalf("Fallbacks = %d: run silently degraded to in-process shards", st.Fallbacks)
					}
					if st.Spawned < int64(shards) {
						t.Fatalf("Spawned = %d, want >= %d worker processes", st.Spawned, shards)
					}
					// The frame-layer counters: every observation crossed the
					// wire, and Configure alone is two frames per shard.
					if st.WireBytesSent == 0 || st.WireBytesReceived == 0 || st.Frames < 2*int64(shards) {
						t.Fatalf("wire counters = %d sent, %d received, %d frames", st.WireBytesSent, st.WireBytesReceived, st.Frames)
					}
				})
			}
		})
	}
}

// TestSupervisorFallbackInProcess pins the degraded mode: when the worker
// command cannot start at all, every shard falls back to the in-process
// windower and the run still produces the correct fingerprint.
func TestSupervisorFallbackInProcess(t *testing.T) {
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	want := unshardedFingerprint(t, cfg, obs)
	sup := shardrpc.NewSupervisor(shardrpc.SupervisorConfig{
		Command: []string{"/nonexistent/evshardd-missing-binary"},
	})
	got := routerFingerprint(t, stream.RouterConfig{
		Config: cfg,
		Shards: 3,
		Runner: sup,
	}, obs)
	st := sup.Stats()
	sup.Close()
	if got != want {
		t.Fatalf("fallback replay diverged from unsharded:\n--- unsharded\n%s\n--- fallback\n%s", want, got)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("Fallbacks = 0, want > 0 (worker command is unspawnable)")
	}
	if st.Spawned != 0 {
		t.Fatalf("Spawned = %d, want 0", st.Spawned)
	}
}

// hostileRunner emits protocol garbage instead of real shard output — an
// out-of-order round for shard 0 — then drains its input. The router must
// surface an error — never panic or hang.
type hostileRunner struct{}

func (hostileRunner) RunShard(run stream.ShardRun) {
	if run.Shard == 0 {
		run.Emit(stream.ShardOut{Round: 42})
	}
	for {
		select {
		case <-run.Stop:
			return
		case _, ok := <-run.In:
			if !ok {
				return
			}
		}
	}
}

// TestHostileRunnerFailsClosed pins the router's posture toward a
// misbehaving runner (the supervisor's worst case: a worker replying with
// corrupted emissions): the run errors out instead of folding bad rounds.
func TestHostileRunnerFailsClosed(t *testing.T) {
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	r, err := stream.NewRouter(stream.RouterConfig{
		Config: cfg,
		Shards: 2,
		Runner: hostileRunner{},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	var ingestErr error
	for _, o := range obs {
		if _, ingestErr = r.Ingest(o); ingestErr != nil {
			break
		}
	}
	if ingestErr == nil {
		if _, err := r.Finalize(context.Background()); err == nil {
			t.Fatalf("router accepted an out-of-order round from a hostile runner")
		}
	}
}
