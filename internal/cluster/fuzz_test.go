package cluster

import (
	"bytes"
	"encoding/hex"
	"io"
	"net/rpc"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
	"evmatching/internal/wire"
)

// FuzzTaskResultDecode throws arbitrary wire-level task reports — wrong job
// IDs, out-of-range task IDs, hostile kinds, duplicated and reordered
// deliveries — plus arbitrary record-file bytes at the coordinator, asserting it
// never panics and its task accounting never goes negative. This is the
// safety net behind the chaos harness: injected duplicate/reordered results
// must be absorbable no matter what they contain.
func FuzzTaskResultDecode(f *testing.F) {
	f.Add([]byte(`[{"Key":"a","Value":"1"}]`), "1", int(TaskMap), 0, "", "w0", int64(1))
	f.Add([]byte(`not json`), "2", int(TaskReduce), 99, "boom", "w1", int64(-7))
	f.Add([]byte(`[]`), "", int(TaskWait), -1, "", "", int64(0))
	f.Add([]byte{0xff, 0xfe}, "1", 255, 1<<30, "x", "w0", int64(1<<40))
	f.Add([]byte{0x01, 'a', 0xff, 0xff, 0xff, 0xff, 0x03, 'b'}, "1", int(TaskMap), 0, "", "w0", int64(1)) // 1 GiB value length

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, jobID string, kind int, taskID int, errStr string, worker string, counter int64) {
		// Wire decode: arbitrary bytes in a shared-directory record file must
		// error or parse, never panic (nor allocate what a hostile length
		// prefix claims). The file name is fixed: job IDs are
		// coordinator-generated, only the bytes are attacker-shaped.
		path := filepath.Join(dir, "fuzz-input")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = spill.ReadRun(spill.OS{}, path)

		// Coordinator accounting: build an active job directly (no RPC) and
		// fire hostile reports at it, twice each to model duplicates, then a
		// request, then the reports again to model reordering.
		c, err := NewCoordinator(CoordinatorConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		job := &activeJob{
			id:          "1",
			spec:        JobSpec{Name: "fuzz", MapName: "m", ReduceName: "r", NumMapTasks: 2, NumReducers: 2},
			submitted:   time.Now(),
			mapTasks:    newTasks(2),
			reduceTasks: newTasks(2),
			mapsLeft:    2,
			reducesLeft: 2,
			counters:    mapreduce.NewCounters(),
			done:        make(chan struct{}),
		}
		c.job = job
		rpc := &coordinatorRPC{c: c}

		report := &TaskReport{
			WorkerID: worker,
			JobID:    jobID,
			Kind:     TaskKind(kind),
			TaskID:   taskID,
			Err:      errStr,
			Counters: map[string]int64{"fuzz.counter": counter},
		}
		for i := 0; i < 2; i++ {
			_ = rpc.ReportTask(report, &TaskAck{})
		}
		var reply TaskReply
		_ = rpc.RequestTask(&TaskRequest{WorkerID: worker}, &reply)
		_ = rpc.ReportTask(report, &TaskAck{})

		c.mu.Lock()
		if job.mapsLeft < 0 || job.reducesLeft < 0 {
			t.Errorf("task accounting went negative: maps=%d reduces=%d", job.mapsLeft, job.reducesLeft)
		}
		for i := range job.mapTasks {
			if job.mapTasks[i].state == taskCompleted && job.mapsLeft > len(job.mapTasks) {
				t.Errorf("inconsistent map accounting")
			}
		}
		c.mu.Unlock()
	})
}

// scriptConn plays a canned byte stream to a codec and swallows what it
// writes back.
type scriptConn struct{ io.Reader }

func (scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (scriptConn) Close() error                { return nil }

// gobEraRequest is what a worker built before the binary frame sends first:
// net/rpc's gob type descriptor of rpc.Request, then a RequestTask request.
// Read as a frame it is 46 bytes long and speaks "version" 0x7f.
var gobEraRequest, _ = hex.DecodeString("2e7f030101075265717565737401ff80000102010d536572766963654d6574686f64010c00010353657101060000001eff8001194556436f6f7264696e61746f722e526571756573745461736b0026ff810301010b5461736b5265717565737401ff820001010108576f726b65724944010c00000007ff820102773000")

// FuzzTaskFrameDecode throws hostile, truncated and duplicated frames at the
// coordinator's server codec and dispatches what decodes to a coordinator
// with a job waiting, as net/rpc would: nothing may panic, and decoding may
// never allocate more than a small multiple of the bytes sent. The same
// bytes then go to a worker's half as a stream of replies.
func FuzzTaskFrameDecode(f *testing.F) {
	frame := func(seq uint64, method string, body any) []byte {
		b, err := protocol.Encoder().Encode(seq, RPCServiceName+"."+method, "", body)
		if err != nil {
			panic(err)
		}
		return append([]byte(nil), b...)
	}
	reply, report := goldenTaskMessages()
	request := frame(1, "RequestTask", &TaskRequest{WorkerID: "w0"})
	done := frame(2, "ReportTask", &TaskReport{WorkerID: "w0", JobID: "1", Kind: TaskMap, Counters: map[string]int64{"a": 1, "b": 2}})
	valid := bytes.Join([][]byte{request, done, frame(3, "RequestTask", &TaskRequest{WorkerID: "w0"})}, nil)
	f.Add(valid)
	// Truncated at every byte, so at every field boundary of every frame.
	for cut := 0; cut < len(valid); cut++ {
		f.Add(valid[:cut])
	}
	// Duplicated: a redelivered report, and one for a task out of range.
	f.Add(bytes.Join([][]byte{request, done, done}, nil))
	f.Add(frame(4, "ReportTask", &TaskReport{JobID: "1", Kind: TaskReduce, TaskID: 1 << 40, Err: "boom"}))
	f.Add(frame(5, "RequestTask", reply))
	f.Add(frame(5, "ReportTask", report))
	// Counters out of name order, repeated, and a count of 2^62.
	body := []byte{protocol.Version, 6, 2, 0, 0, 1, '1', 2, 0, 0} // header, then a map task report up to its counters
	for _, name := range []string{"b", "a"} {
		body = wire.AppendVarint(wire.AppendString(body, name), 1)
	}
	f.Add(wire.AppendBytes(nil, body))
	f.Add(wire.AppendBytes(nil, append(body[:10:10], 2, 1, 'a', 1, 1, 'a', 1)))
	f.Add(wire.AppendBytes(nil, wire.AppendUvarint(body[:10:10], 1<<62)))
	// A frame announcing more than the cap, and one announcing the cap.
	f.Add(wire.AppendUvarint(nil, wire.MaxFrameBytes+1))
	f.Add(append(wire.AppendUvarint(nil, wire.MaxFrameBytes), protocol.Version, 1, 1))
	// Another build's bytes: the next version, and a gob-era stream.
	next := append([]byte(nil), request...)
	next[1] = protocol.Version + 1
	f.Add(next)
	f.Add(gobEraRequest)
	// An unknown method tag, and garbage.
	f.Add(wire.AppendBytes(nil, []byte{protocol.Version, 4, 77, 0, 1, 2, 3}))
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64<<10 {
			return
		}
		c, err := NewCoordinator(CoordinatorConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c.job = &activeJob{id: "1", spec: wcSpec(), submitted: time.Now(), mapTasks: newTasks(2), reduceTasks: newTasks(2),
			mapsLeft: 2, reducesLeft: 2, counters: mapreduce.NewCounters(), done: make(chan struct{})}
		r := &coordinatorRPC{c: c}
		codec := protocol.ServerCodec(scriptConn{bytes.NewReader(raw)}, nil)
		var decoded uint64 // bytes allocated while decoding
		measure := func(decode func() error) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode()
			runtime.ReadMemStats(&after)
			decoded += after.TotalAlloc - before.TotalAlloc
			return err
		}
		for {
			var req rpc.Request
			if measure(func() error { return codec.ReadRequestHeader(&req) }) != nil {
				break // net/rpc hangs up on a header it cannot read
			}
			resp := rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}
			var reply any
			var err error
			switch req.ServiceMethod {
			case RPCServiceName + ".RequestTask":
				var args TaskRequest
				if err = measure(func() error { return codec.ReadRequestBody(&args) }); err == nil {
					reply = &TaskReply{}
					err = r.RequestTask(&args, reply.(*TaskReply))
				}
			case RPCServiceName + ".ReportTask":
				var args TaskReport
				if err = measure(func() error { return codec.ReadRequestBody(&args) }); err == nil {
					reply = &TaskAck{}
					err = r.ReportTask(&args, reply.(*TaskAck))
				}
			default:
				_ = codec.ReadRequestBody(nil)
				resp.Error = "rpc: can't find method " + req.ServiceMethod
			}
			if err != nil {
				resp.Error = err.Error()
			}
			if err := codec.WriteResponse(&resp, reply); err != nil {
				t.Fatalf("WriteResponse(%s): %v", req.ServiceMethod, err)
			}
		}
		// 128 KiB of fixed reader buffers, then at most ~20x: a decoded
		// report's counter map is larger than its smallest encoding.
		if decoded > 256<<10+32*uint64(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), decoded)
		}
		if job := c.job; job.mapsLeft < 0 || job.reducesLeft < 0 {
			t.Fatalf("task accounting went negative: maps=%d reduces=%d", job.mapsLeft, job.reducesLeft)
		}

		// The worker's half: the same bytes as a stream of replies.
		dec := protocol.Decoder(bytes.NewReader(raw), "coordinator")
		for i := 0; i < 8; i++ {
			if _, _, errStr, err := dec.Next(); err != nil {
				break
			} else if errStr == "" {
				_ = dec.Body(&TaskReply{})
			}
		}
	})
}
