package shardrpc_test

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"evmatching/internal/mrtest"
	"evmatching/internal/scenario"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

// corruptingRunner relays each incarnation's messages to next, turning the
// one journalled at position bad into a message of an unknown kind: a
// windower refuses it wherever it runs, and would refuse it again on replay.
type corruptingRunner struct {
	next stream.ShardRunner
	bad  int64
}

func (c corruptingRunner) RunShard(run stream.ShardRun) {
	// Sized like the router's queue, so the relay holds back nothing the
	// router could have queued.
	src, in := run.In, make(chan stream.ShardMsg, cap(run.In))
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		for {
			select {
			case <-run.Stop:
				return
			case m := <-src:
				if m.Pos == c.bad {
					m.Kind = 99
				}
				select {
				case in <- m:
				case <-run.Stop:
					return
				}
			}
		}
	}()
	run.In = in
	c.next.RunShard(run)
	<-relayed
}

// TestShardRefusalIsFatal corrupts one journalled message on its way to an
// in-process shard and to a worker process. The windower's refusal must fail
// the stream with ErrShardFailed within a bounded wait — not redispatch the
// shard to replay the same message into the same refusal, forever — with one
// worker spawned, and no goroutine or process left behind.
func TestShardRefusalIsFatal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	obs = obs[:len(obs)/4]
	for _, remote := range []bool{false, true} {
		name := "in-process"
		if remote {
			name = "worker-process"
		}
		t.Run(name, func(t *testing.T) {
			var next stream.ShardRunner = inProcessRunner{}
			var sup *shardrpc.Supervisor
			if remote {
				sup = shardrpc.NewSupervisor(workerSupervisorConfig(t))
				next = sup
			}
			r, err := stream.NewRouter(stream.RouterConfig{Config: cfg, Shards: 1, Runner: corruptingRunner{next, 100}})
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			done := make(chan error, 1)
			go func() {
				for _, o := range obs {
					if _, err := r.Ingest(o); err != nil {
						if !errors.Is(err, stream.ErrShardFailed) {
							t.Errorf("Ingest after the refusal = %v, want ErrShardFailed", err)
						}
						break
					}
				}
				done <- r.Flush()
			}()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Flush did not return: the refused message is being replayed")
			}
			if !errors.Is(err, stream.ErrShardFailed) {
				t.Fatalf("Flush = %v, want ErrShardFailed", err)
			}
			t.Logf("Flush: %v", err)
			if st := r.Stats(); st.Redispatches != 0 {
				t.Fatalf("Redispatches = %d, want 0: a refusal is not a death", st.Redispatches)
			}
			r.Close()
			if sup != nil {
				st := sup.Stats()
				sup.Close()
				assertWorkersReaped(t, sup)
				if st.Spawned != 1 || st.Fallbacks != 0 {
					t.Fatalf("Spawned = %d, Fallbacks = %d; want 1 and 0", st.Spawned, st.Fallbacks)
				}
			}
		})
	}
}

// TestSupervisorRunShardExits holds Supervisor.RunShard, proxy loop and
// heartbeat included, to the seam's contract exit by exit: each is the
// router stopping the run (nothing reported) or exactly one report through
// Died — nil for a worker death, non-nil for a refused message or a worker
// that cannot be configured and a fallback that cannot run either.
func TestSupervisorRunShardExits(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	mrtest.CheckGoroutines(t)
	params := stream.ShardParams{WindowMS: 1_000, Dim: 8, WorkFactor: 1}
	obs := stream.ShardMsg{Pos: 1, Kind: stream.ShardMsgObs, Obs: stream.Observation{TS: 10, Kind: stream.KindE, Cell: 3, EID: "e1", Attr: scenario.AttrInclusive}}
	closing := stream.ShardMsg{Pos: 2, Kind: stream.ShardMsgClose, Round: 1, Target: 1}
	const (
		stopped = "stopped by the router"
		died    = "one death report"
		refused = "one refusal report"
	)
	cases := []struct {
		name   string
		params stream.ShardParams
		msgs   []stream.ShardMsg
		kill   bool // SIGKILL the worker before the first Apply
		at     string
		want   string
	}{
		// at is when the router stops the run: once the worker has taken
		// every message ("applied"), while the run blocks in Emit
		// ("emitting"), after its report ("reported"), or never ("").
		{"stop-while-idle", params, []stream.ShardMsg{obs}, false, "applied", stopped},
		{"stop-while-emitting", params, []stream.ShardMsg{obs, closing}, false, "emitting", stopped},
		{"apply-fails", params, []stream.ShardMsg{obs}, true, "", died},
		{"heartbeat-fails", params, nil, false, "reported", died},
		{"apply-refused", params, []stream.ShardMsg{{Pos: 1, Kind: 99}}, false, "", refused},
		{"configure-refused", stream.ShardParams{}, nil, false, "", refused},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scfg := workerSupervisorConfig(t)
			scfg.KillPlan = func(int, int, int64) bool { return c.kill }
			sup := shardrpc.NewSupervisor(scfg)
			defer func() {
				sup.Close()
				assertWorkersReaped(t, sup)
			}()
			in := make(chan stream.ShardMsg, len(c.msgs))
			for _, m := range c.msgs {
				in <- m
			}
			stop := make(chan struct{})
			emitting := make(chan struct{}, 1)
			var mu sync.Mutex
			var reports []error
			run := stream.ShardRun{
				Params: c.params,
				In:     in,
				Stop:   stop,
				Emit: func(stream.ShardOut) bool {
					if c.at != "emitting" {
						return true
					}
					emitting <- struct{}{}
					<-stop
					return false
				},
				Died: func(refusal error) {
					mu.Lock()
					reports = append(reports, refusal)
					mu.Unlock()
				},
				Incarnation: 1,
			}
			reported := func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(reports)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				sup.RunShard(run)
			}()
			switch c.at {
			case "applied":
				if !waitFor(func() bool { return len(in) == 0 && sup.Stats().Frames >= 4 }) {
					t.Fatal("the worker never took the messages")
				}
				close(stop)
			case "emitting":
				<-emitting
				close(stop)
			case "reported":
				// Configure answered (two frames), then the worker dies under
				// the heartbeat with nothing in flight.
				if !waitFor(func() bool { return sup.Stats().Frames >= 2 }) {
					t.Fatal("the worker was never configured")
				}
				syscall.Kill(sup.PIDs()[0], syscall.SIGKILL)
				if !waitFor(func() bool { return reported() > 0 }) {
					t.Fatal("the heartbeat never reported the dead worker")
				}
				close(stop)
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("RunShard did not return")
			}
			mu.Lock()
			defer mu.Unlock()
			var got string
			switch {
			case len(reports) == 0 && c.want == stopped:
				got = stopped
			case len(reports) == 1 && reports[0] == nil:
				got = died
			case len(reports) == 1:
				got = refused
			default:
				got = "reports " + errors.Join(reports...).Error()
			}
			if got != c.want {
				t.Fatalf("exit = %s (%d reports: %v), want %s", got, len(reports), reports, c.want)
			}
		})
	}
}
