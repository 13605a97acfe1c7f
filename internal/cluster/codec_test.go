package cluster

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/mrtest"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTaskMessages are one task assignment and one report whose two
// counters were added out of name order.
func goldenTaskMessages() (*TaskReply, *TaskReport) {
	reply := &TaskReply{Kind: TaskReduce, JobID: "7", TaskID: 2, MapName: "wc.map", ReduceName: "wc.reduce",
		CombineName: "wc.combine", NumMapTasks: 6, NumReducers: 3}
	report := &TaskReport{WorkerID: "w1", JobID: "7", Kind: TaskReduce, TaskID: 2,
		Counters: map[string]int64{"reduce.out": 3, "map.in": -7}}
	return reply, report
}

// TestGoldenTaskFrames pins the version-1 task frames: a TaskReply and a
// TaskReport, whose counters travel in name order. A format change must show
// up as a deliberate diff of testdata/task_frames.hex (regenerate with: go
// test ./internal/cluster/ -run TestGoldenTaskFrames -update) — and as a
// version bump, or two builds will misread each other silently.
func TestGoldenTaskFrames(t *testing.T) {
	reply, report := goldenTaskMessages()
	enc := protocol.Encoder()
	var frames []byte
	for i, body := range []any{reply, report} {
		frame, err := enc.Encode(uint64(i+1), protocol.Methods[i], "", body)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		frames = append(frames, frame...)
	}
	const path = "testdata/task_frames.hex"
	if *update {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(frames)+"\n"), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("golden is not hex: %v", err)
	}
	if !bytes.Equal(frames, golden) {
		t.Fatalf("frame bytes changed (format change? bump the protocol version and regenerate with -update)\n got %x\nwant %x", frames, golden)
	}
	dec := protocol.Decoder(bytes.NewReader(golden), "peer")
	got := []any{&TaskReply{}, &TaskReport{}}
	for i, body := range got {
		if seq, method, errStr, err := dec.Next(); err != nil || seq != uint64(i+1) || method != protocol.Methods[i] || errStr != "" {
			t.Fatalf("frame %d header = (%d, %q, %q, %v)", i, seq, method, errStr, err)
		}
		if err := dec.Body(body); err != nil {
			t.Fatalf("frame %d body: %v", i, err)
		}
	}
	if !reflect.DeepEqual(got, []any{reply, report}) {
		t.Fatalf("decoded messages differ\n got %+v %+v\nwant %+v %+v", got[0], got[1], reply, report)
	}
}

// TestCoordinatorRefusesOtherBuilds points workers of other builds at a
// coordinator with a job waiting: one speaking gob (net/rpc's default
// client, what every worker spoke before the binary frame) and one sending
// a frame of the next wire version. Each call must fail within a deadline
// instead of hanging on undecodable bytes, and neither may claim a lease.
func TestCoordinatorRefusesOtherBuilds(t *testing.T) {
	mrtest.CheckGoroutines(t)
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	job := &activeJob{id: "1", spec: wcSpec(), submitted: time.Now(), mapTasks: newTasks(2), reduceTasks: newTasks(1),
		mapsLeft: 2, reducesLeft: 1, counters: mapreduce.NewCounters(), done: make(chan struct{})}
	coord.job = job
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := coord.Serve(lis)
	defer coord.Close()
	dropped := func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.conns) == 0
	}

	t.Run("gob-worker", func(t *testing.T) {
		client, err := rpc.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		call := client.Go(RPCServiceName+".RequestTask", &TaskRequest{WorkerID: "gob-era"}, &TaskReply{}, nil)
		select {
		case <-call.Done:
			if call.Error == nil {
				t.Fatal("a gob worker's RequestTask succeeded against the binary frame")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a gob worker's RequestTask hung")
		}
		waitFor(t, "dropped the gob worker's connection", dropped)
	})

	t.Run("next-version-frame", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		frame, err := protocol.Encoder().Encode(1, RPCServiceName+".RequestTask", "", &TaskRequest{WorkerID: "next"})
		if err != nil {
			t.Fatal(err)
		}
		frame[1] = protocol.Version + 1 // the length prefix is one byte here
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _, errStr, err := protocol.Decoder(conn, "coordinator").Next()
		want := fmt.Sprintf("cluster: worker speaks wire version %d, want %d", protocol.Version+1, protocol.Version)
		if err != nil || !strings.Contains(errStr, want) {
			t.Fatalf("reply = (%q, %v), want an error string containing %q", errStr, err, want)
		}
		waitFor(t, "dropped the next-version connection", dropped)
	})

	coord.mu.Lock()
	defer coord.mu.Unlock()
	for _, tasks := range [][]taskInfo{job.mapTasks, job.reduceTasks} {
		for i, task := range tasks {
			if task.state != taskIdle || task.attempts != 0 {
				t.Errorf("task %d: state %d after %d claims; a peer from another build claimed a lease", i, task.state, task.attempts)
			}
		}
	}
}
