package benchsuite

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

// WorkerSentinelEnv marks a process as a shard worker re-exec. The remote
// replay benchmarks spawn the current binary as their evshardd: both hosts
// of this suite — the package's TestMain and cmd/evbench — check the
// sentinel first and hand the process to shardrpc.WorkerMain before any
// normal startup, exactly like the shardrpc package tests.
const WorkerSentinelEnv = "EVSHARD_WORKER"

// IsWorkerReexec reports whether this process was spawned as a shard
// worker and should run WorkerExitCode instead of its normal entrypoint.
func IsWorkerReexec() bool {
	return os.Getenv(WorkerSentinelEnv) == "1"
}

// WorkerExitCode runs the evshardd worker loop in-place and returns its
// exit code. Callers os.Exit with it.
func WorkerExitCode() int {
	return shardrpc.WorkerMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
}

// streamReplayRemoteShardsBench replays the sharded-stream workload through
// N separate worker processes, timing ingest through Flush like
// streamReplayShardsBench — so the delta against StreamReplayShards at the
// same shard count is exactly the cross-process tax: frame encode and decode,
// rpc round-trips, and supervisor bookkeeping. One supervisor is shared across
// all b.N iterations — Configure resets the hosted windower, so worker
// processes are reused and process spawn is amortized out of the steady
// state (the first iteration still pays it, as a real deployment would).
func streamReplayRemoteShardsBench(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		exe, err := os.Executable()
		if err != nil {
			b.Fatal(err)
		}
		_, scfg, obs := streamReplayWorld(b)
		sup := shardrpc.NewSupervisor(shardrpc.SupervisorConfig{
			Command: []string{exe},
			Env:     []string{WorkerSentinelEnv + "=1"},
		})
		defer sup.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := stream.NewRouter(stream.RouterConfig{
				Config: scfg, Shards: workers, Runner: sup,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range obs {
				if _, err := r.Ingest(o); err != nil {
					b.Fatal(err)
				}
			}
			if err := r.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(r.Resolutions())), "resolutions")
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		if st := sup.Stats(); st.Fallbacks > 0 {
			b.Fatalf("remote bench fell back in-process %d times (worker spawn broken?)", st.Fallbacks)
		}
	}
}

// shardRPCSerializeBench isolates the wire cost the remote replays pay per
// emission: one frame encode plus decode, through the codec the connections
// use, of a representative ApplyReply — one sealed round of four (window,
// cell) closures, eight EIDs and eight detection references each (wire
// version 2: a closure names its detections by journal position and carries
// neither pixels nor features). Encoder and decoder keep their buffers across
// iterations, as a connection's do. wire_bytes reports the frame size.
func shardRPCSerializeBench() func(b *testing.B) {
	return func(b *testing.B) {
		const dets = 8
		sealed := make([]stream.ShardSealed, 4)
		for i := range sealed {
			s := stream.ShardSealed{Window: i, Cell: geo.CellID(3 + i)}
			for j := 0; j < dets; j++ {
				s.EIDs = append(s.EIDs, stream.BucketEID{
					EID: ids.EID(fmt.Sprintf("bench-e%02d", j)), Attr: scenario.AttrInclusive,
				})
				s.Refs = append(s.Refs, int64(1_000*(i+1)+37*j))
			}
			sealed[i] = s
		}
		reply := shardrpc.ApplyReply{Outs: []stream.ShardOut{{
			Round: 1, Target: 1, MaxTS: 1_000, Sealed: sealed,
		}}}
		var (
			enc  shardrpc.FrameEncoder
			wire bytes.Buffer
			size int
		)
		dec := shardrpc.NewFrameDecoder(&wire, "worker")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame, err := enc.Encode(uint64(i), shardrpc.ServiceName+".Apply", "", &reply)
			if err != nil {
				b.Fatal(err)
			}
			size = len(frame)
			wire.Write(frame)
			var got shardrpc.ApplyReply
			if _, _, _, err := dec.Decode(&got); err != nil {
				b.Fatal(err)
			}
			if len(got.Outs) != 1 || len(got.Outs[0].Sealed) != len(sealed) {
				b.Fatalf("round-trip lost emissions: got %d", len(got.Outs))
			}
		}
		b.ReportMetric(float64(size), "wire_bytes")
	}
}
