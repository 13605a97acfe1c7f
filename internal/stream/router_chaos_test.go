package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"evmatching/internal/chaos"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/mrtest"
	"evmatching/internal/stream"
)

// countingPlan wraps a fault plan and counts the kills it hands out. A kill
// sheds any stall drawn for the same step, so every kill counted here is one
// the shard's run takes at once: RouterStats.Kills must come out equal, which
// it only can if the plan is consulted in the loop the shards really run.
type countingPlan struct {
	plan  stream.ShardFaultPlan
	kills atomic.Int64
}

func (c *countingPlan) ShardFault(shard, incarnation, step int) stream.ShardFault {
	f := c.plan.ShardFault(shard, incarnation, step)
	if f.Kill {
		f.Stall = 0
		c.kills.Add(1)
	}
	return f
}

// chaosWorkload builds the shared practical dataset, its observation log,
// and the base engine config for the shard chaos schedules.
func chaosWorkload(t *testing.T) (stream.Config, []stream.Observation, []ids.EID) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 60
	cfg.Density = 8
	cfg.NumWindows = 16
	cfg = cfg.Practical()
	cfg.EIDMissingRate = 0.1
	cfg.VIDMissingRate = 0.05
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	targets := ds.AllEIDs()[:12]
	_, obs, err := stream.EventsFromDataset(ds, 1_000, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	ecfg := stream.Config{
		Targets:    targets,
		WindowMS:   1_000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
		Seed:       7,
	}
	return ecfg, obs, targets
}

// TestShardKillChaos is the shard-death battery: six seeded fault schedules
// kill shard windowers mid-window (and stall others); every death is
// reported by the shard's runner, the router redispatches its cell range to
// a replacement replaying the shard's journal — the windows not folded yet —
// and the merged fingerprint must still be byte-identical to the fault-free
// unsharded replay. No clock drives detection: a stalled shard is never taken
// for a dead one. The goroutine leak check at the top ensures every killed
// incarnation and its replacement is joined by Close.
func TestShardKillChaos(t *testing.T) {
	mrtest.CheckGoroutines(t)
	ecfg, obs, _ := chaosWorkload(t)

	// Fault-free unsharded baseline.
	e, err := stream.NewEngine(ecfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	baseline, err := e.Finalize(context.Background())
	if err != nil {
		t.Fatalf("baseline Finalize: %v", err)
	}
	want := baseline.Fingerprint()

	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("schedule-%d", seed), func(t *testing.T) {
			inj, err := chaos.NewShardInjector(seed, chaos.ShardConfig{
				Kill:     0.002,
				Stall:    0.0005,
				StallFor: time.Millisecond,
			})
			if err != nil {
				t.Fatalf("NewShardInjector: %v", err)
			}
			plan := &countingPlan{plan: inj}
			r, err := stream.NewRouter(stream.RouterConfig{
				Config: ecfg,
				Shards: 4,
				Faults: plan,
			})
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			defer r.Close()
			for i, o := range obs {
				accepted, err := r.Ingest(o)
				if err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
				if !accepted {
					t.Fatalf("Ingest %d: in-order observation dropped under faults", i)
				}
			}
			rep, err := r.Finalize(context.Background())
			if err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if got := rep.Fingerprint(); got != want {
				t.Fatalf("fingerprint diverged from fault-free unsharded replay under schedule %d:\n--- fault-free\n%s\n--- chaos\n%s", seed, want, got)
			}
			// Close joins every incarnation, so no kill is still in flight
			// between the plan's counter and the router's.
			r.Close()
			st := r.Stats()
			if st.Kills == 0 {
				t.Fatalf("schedule %d injected no shard kills; the schedule is vacuous", seed)
			}
			if planned := plan.kills.Load(); st.Kills != planned {
				t.Fatalf("schedule %d: %d kills taken, the plan handed out %d", seed, st.Kills, planned)
			}
			if st.Redispatches == 0 || st.Redispatches > st.Kills {
				t.Fatalf("schedule %d: %d kills but %d redispatches", seed, st.Kills, st.Redispatches)
			}
			t.Logf("schedule %d: %d kills, %d redispatches", seed, st.Kills, st.Redispatches)
		})
	}
}

// TestShardKillDuringCheckpoint kills shards while a checkpoint barrier is
// in flight: the barrier must complete through the redispatched
// replacements, and the resulting image must restore and resume to the
// fault-free fingerprint.
func TestShardKillDuringCheckpoint(t *testing.T) {
	mrtest.CheckGoroutines(t)
	ecfg, obs, _ := chaosWorkload(t)
	want := unshardedFingerprint(t, ecfg, obs)

	inj, err := chaos.NewShardInjector(99, chaos.ShardConfig{Kill: 0.004})
	if err != nil {
		t.Fatalf("NewShardInjector: %v", err)
	}
	plan := &countingPlan{plan: inj}
	rcfg := stream.RouterConfig{
		Config: ecfg,
		Shards: 3,
		Faults: plan,
	}
	r, err := stream.NewRouter(rcfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	cut := len(obs) / 2
	for i := 0; i < cut; i++ {
		if _, err := r.Ingest(obs[i]); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	var image bytes.Buffer
	if err := r.Checkpoint(&image); err != nil {
		t.Fatalf("Checkpoint under faults: %v", err)
	}
	// Close joins every incarnation, so no kill is still in flight between
	// the plan's counter and the router's.
	r.Close()
	if st := r.Stats(); st.Kills == 0 {
		t.Fatal("no kills before or during the checkpoint barrier; raise the fault rate")
	} else if planned := plan.kills.Load(); st.Kills != planned {
		t.Fatalf("%d kills taken, the plan handed out %d", st.Kills, planned)
	}

	// Restore fault-free and resume.
	clean := rcfg
	clean.Faults = nil
	restored, err := stream.RestoreRouter(clean, &image)
	if err != nil {
		t.Fatalf("RestoreRouter: %v", err)
	}
	defer restored.Close()
	for i := cut; i < len(obs); i++ {
		if _, err := restored.Ingest(obs[i]); err != nil {
			t.Fatalf("resumed Ingest %d: %v", i, err)
		}
	}
	rep, err := restored.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatal("checkpoint written under shard kills restored to a diverged state")
	}
}

// unshardedFingerprint replays the log through a plain engine.
func unshardedFingerprint(t *testing.T, cfg stream.Config, obs []stream.Observation) string {
	t.Helper()
	e, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	rep, err := e.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return rep.Fingerprint()
}
