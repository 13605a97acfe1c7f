package stream

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evmatching/internal/scenario"
)

// planFunc adapts a function to ShardFaultPlan.
type planFunc func(shard, incarnation, step int) ShardFault

func (f planFunc) ShardFault(shard, incarnation, step int) ShardFault {
	return f(shard, incarnation, step)
}

// TestRunShardInProcessExits holds RunShardInProcess to the seam's contract
// exit by exit: each is the router stopping the run (Stop closed, nothing
// reported) or exactly one report through Died — nil for a death a replay
// cures, the windower's error for a message it refused.
func TestRunShardInProcessExits(t *testing.T) {
	params := ShardParams{WindowMS: 1_000, Dim: 8, WorkFactor: 1}
	obs := ShardMsg{Pos: 1, Kind: ShardMsgObs, Obs: Observation{TS: 10, Kind: KindE, Cell: 3, EID: "e1", Attr: scenario.AttrInclusive}}
	closing := ShardMsg{Pos: 2, Kind: ShardMsgClose, Round: 1, Target: 1}
	const (
		stopped = "stopped by the router"
		died    = "one death report"
		refused = "one refusal report"
	)
	cases := []struct {
		name   string
		params ShardParams
		msgs   []ShardMsg
		fault  ShardFault // drawn for the last message
		inEmit bool       // the router stops the run while it emits
		want   string
	}{
		{"stop-while-idle", params, []ShardMsg{obs}, ShardFault{}, false, stopped},
		{"stop-while-stalled", params, []ShardMsg{obs}, ShardFault{Stall: time.Hour}, false, stopped},
		{"stop-while-emitting", params, []ShardMsg{obs, closing}, ShardFault{}, true, stopped},
		{"killed", params, []ShardMsg{obs}, ShardFault{Kill: true}, false, died},
		{"unusable-params", ShardParams{}, nil, ShardFault{}, false, refused},
		{"unknown-kind", params, []ShardMsg{{Pos: 1, Kind: 99}}, ShardFault{}, false, refused},
		{"unwindowable-observation", params, []ShardMsg{{Pos: 1, Kind: ShardMsgObs, Obs: Observation{TS: 10, Kind: KindV, Cell: 3}}}, ShardFault{}, false, refused},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := make(chan ShardMsg, len(c.msgs))
			for _, m := range c.msgs {
				in <- m
			}
			stop := make(chan struct{})
			stopNow := make(chan struct{}, 1) // the run reached the point the router stops it at
			signal := func() {
				select {
				case stopNow <- struct{}{}:
				default:
				}
			}
			var mu sync.Mutex
			var reports []error
			run := ShardRun{
				Params: c.params,
				In:     in,
				Stop:   stop,
				Emit: func(ShardOut) bool {
					if !c.inEmit {
						return true
					}
					signal()
					<-stop
					return false
				},
				Died: func(refusal error) {
					mu.Lock()
					reports = append(reports, refusal)
					mu.Unlock()
				},
				faults: planFunc(func(_, _, step int) ShardFault {
					if step < len(c.msgs) {
						return ShardFault{}
					}
					if c.want == stopped && !c.inEmit {
						signal()
					}
					return c.fault
				}),
				kills: new(atomic.Int64),
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				RunShardInProcess(run)
			}()
			select {
			case <-stopNow:
				close(stop)
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the run neither reached its stop point nor returned")
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("RunShardInProcess did not return")
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

// TestCloseUnblocksFlush closes a router while Flush waits at the fold
// barrier on a shard that never answers. Flush must return ErrRouterClosed —
// not poll the stopped router forever, nor act on a report after Close.
func TestCloseUnblocksFlush(t *testing.T) {
	ds := testDataset(t, false)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	closing := make(chan struct{}, 1)
	silent := runnerFunc(func(run ShardRun) {
		for {
			select {
			case <-run.Stop:
				return
			case m := <-run.In:
				if m.Kind == ShardMsgClose {
					closing <- struct{}{} // Flush has issued its round and waits
				}
			}
		}
	})
	r, err := NewRouter(RouterConfig{Config: testConfig(ds, ds.AllEIDs()[:4]), Runner: silent})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if _, err := r.Ingest(obs[0]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- r.Flush() }()
	<-closing
	r.Close()
	select {
	case err := <-flushed:
		if !errors.Is(err, ErrRouterClosed) {
			t.Fatalf("Flush = %v, want ErrRouterClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush still waiting at the fold barrier after Close")
	}
}

// TestConcurrentCheckpointsReturn parks two Checkpoint calls at the fold
// barrier on one unfolded round, then lets that round fold. The merge stage
// rings the barrier's doorbell once for the fold; both calls must return.
func TestConcurrentCheckpointsReturn(t *testing.T) {
	ds := testDataset(t, false)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	release := make(chan struct{})
	gated := runnerFunc(func(run ShardRun) {
		// Forward the router's messages, holding every close until release.
		src, in := run.In, make(chan ShardMsg, cap(run.In))
		forwarded := make(chan struct{})
		go func() {
			defer close(forwarded)
			for {
				select {
				case <-run.Stop:
					return
				case m := <-src:
					if m.Kind == ShardMsgClose {
						select {
						case <-release:
						case <-run.Stop:
							return
						}
					}
					in <- m
				}
			}
		}()
		run.In = in
		RunShardInProcess(run)
		<-forwarded
	})
	r, err := NewRouter(RouterConfig{Config: testConfig(ds, ds.AllEIDs()[:4]), Shards: 1, Runner: gated})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	issued := 0
	for _, o := range obs {
		if _, err := r.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		r.mu.Lock()
		issued = r.round
		r.mu.Unlock()
		if issued > 0 {
			break
		}
	}
	if issued != 1 {
		t.Fatalf("%d close rounds issued, want exactly 1 held at the barrier", issued)
	}
	done := make(chan error, 2)
	for range 2 {
		go func() { done <- r.Checkpoint(io.Discard) }()
	}
	for parkedAtFoldBarrier() < 2 {
		select {
		case err := <-done:
			t.Fatalf("Checkpoint = %v before its round folded", err)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Checkpoint still waits at the fold barrier after its round folded")
		}
	}
}

// parkedAtFoldBarrier counts the goroutines blocked in the fold barrier's
// wait.
func parkedAtFoldBarrier() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, " [select") && strings.Contains(g, ".awaitFoldLocked(") {
			n++
		}
	}
	return n
}

// TestDeadShardBehindFullQueue kills a shard while Ingest is blocked on its
// full queue. The report must wake the blocked send, which hands the shard to
// a replacement whose journal replay carries the message: no deadlock and
// nothing lost. A later report from the dead incarnation is a no-op.
func TestDeadShardBehindFullQueue(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:8]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	want := replayFingerprint(t, cfg, obs)
	if len(obs) <= shardQueueLen {
		t.Fatalf("%d observations cannot fill a %d-message queue", len(obs), shardQueueLen)
	}

	var ingested atomic.Int64
	stale := make(chan func(error), 1)
	runner := runnerFunc(func(run ShardRun) {
		if run.Incarnation > 1 {
			RunShardInProcess(run)
			return
		}
		// Take nothing: let Ingest fill the queue, then die. The first sleep
		// lets the Ingest that filled it return and gives the next one time
		// to block on the full queue; one that has not got there yet acts on
		// the report on entry instead, which is correct too, only not the
		// path under test.
		for len(run.In) < cap(run.In) {
			select {
			case <-run.Stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
		time.Sleep(20 * time.Millisecond)
		full := ingested.Load()
		time.Sleep(20 * time.Millisecond)
		if n := ingested.Load(); n != full {
			t.Errorf("%d Ingest calls returned past the shard's full queue; want the next one blocked", n-full)
		}
		run.Died(nil)
		stale <- run.Died
	})
	r, err := NewRouter(RouterConfig{Config: cfg, Shards: 1, Runner: runner})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	deadlocked := false
	defer func() {
		if !deadlocked { // Close would wait on the blocked Ingest
			r.Close()
		}
	}()
	done := make(chan error, 1)
	go func() {
		for _, o := range obs {
			if _, err := r.Ingest(o); err != nil {
				done <- err
				return
			}
			ingested.Add(1)
		}
		(<-stale)(errors.New("a stale incarnation's refusal"))
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	case <-time.After(10 * time.Second):
		deadlocked = true
		t.Fatal("Ingest deadlocked behind a dead shard's full queue")
	}
	rep, err := r.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatal("replay through a shard killed behind a full queue diverged from the unsharded one")
	}
	if st := r.Stats(); st.Redispatches != 1 {
		t.Fatalf("Redispatches = %d, want 1", st.Redispatches)
	}
}
