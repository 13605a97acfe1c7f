package benchsuite

import (
	"fmt"
	"testing"

	"evmatching/internal/core"
)

// BenchmarkMatchSSParallel is the end-to-end gate benchmark for the batched
// parallel V stage, pinned at four workers so CI numbers do not depend on the
// runner's core count. cmd/benchdiff compares its -count medians between the
// PR head and the merge base under the noise-adaptive threshold.
func BenchmarkMatchSSParallel(b *testing.B) {
	matchBenchN(core.Options{
		Algorithm: core.AlgorithmSS,
		Mode:      core.ModeParallel,
		Workers:   4,
	}, 80)(b)
}

// BenchmarkMatchSSSerial is a shortened serial reference run (half the target
// sample) so bench-smoke also watches the un-batched baseline path without
// doubling the job's wall clock.
func BenchmarkMatchSSSerial(b *testing.B) {
	matchBenchN(core.Options{
		Algorithm: core.AlgorithmSS,
		Mode:      core.ModeSerial,
	}, 40)(b)
}

// BenchmarkMatchSSSpill is BenchmarkMatchSSParallel under a 4 KiB shuffle
// budget: every reducer bucket spills to sorted runs and k-way merges back
// at reduce time. Its delta against MatchSSParallel is the price of the
// external-merge path; the spill_kb metric proves the run went out of core.
func BenchmarkMatchSSSpill(b *testing.B) {
	matchSSSpillBench()(b)
}

// BenchmarkStreamReplay watches the streaming path end to end: replaying a
// pre-flattened observation log through a fresh engine and finalizing. It
// lives here rather than in internal/stream because bench-smoke also runs on
// the merge base, where only this package's benchmarks are guaranteed to
// exist.
func BenchmarkStreamReplay(b *testing.B) {
	streamReplayBench()(b)
}

// BenchmarkStreamReplayShards sweeps the sharded router over shard counts,
// timing ingest through Flush (Finalize's constant-work verification run is
// excluded — it is identical at every N). The 4-shard/1-shard throughput
// ratio is the scaling gate for the sharded ingest path: per-shard windowing
// and seal-time feature extraction must parallelize, leaving only the
// (window, cell)-ordered fold serial. The ratio is bounded by available
// cores — on a GOMAXPROCS=1 runner the sweep degenerates to measuring
// sharding overhead (expect a flat curve there, not a regression).
func BenchmarkStreamReplayShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), streamReplayShardsBench(shards))
	}
}

// BenchmarkStreamReplayRemoteShards is the same replay through separate
// worker processes (the bench binary re-execs itself as evshardd via
// TestMain's sentinel). Compared against BenchmarkStreamReplayShards at the
// same count, the delta prices the cross-process tax — serialization, rpc
// round-trips, supervisor bookkeeping — which BenchmarkShardRPCSerialize
// breaks out in isolation.
func BenchmarkStreamReplayRemoteShards(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), streamReplayRemoteShardsBench(workers))
	}
}

// BenchmarkShardRPCSerialize prices one frame round-trip of a representative
// sealed-round ApplyReply — the per-emission wire cost inside the remote
// replay numbers.
func BenchmarkShardRPCSerialize(b *testing.B) {
	shardRPCSerializeBench()(b)
}

// BenchmarkCheckpoint prices the checkpoint codec on the StreamReplay world:
// encoding an unflushed engine's image, and restoring an engine from it.
func BenchmarkCheckpoint(b *testing.B) {
	b.Run("encode", checkpointBench(false))
	b.Run("restore", checkpointBench(true))
}

// BenchmarkMatchSSBlocked is the asymptote gate for the posting index
// (DESIGN.md §13): warm SS matches over the cached scale worlds, blocked
// versus exhaustive, with every window the split materialises outside the
// timer, plus two one-shot rows: a fresh store per iteration, which pays for
// them inside it, and a new matcher over a touched store, which must not. On
// the sparse-city 100k world the blocked split_ms metric must sit far below
// the exhaustive one — the committed baseline records ≥5× — and on the
// saturated dense world, where almost nothing prunes, blocked must not lose
// to exhaustive. TestScaleSmoke asserts both ratios with slacker thresholds;
// this benchmark feeds benchdiff and BENCH_baseline.json with the numbers.
func BenchmarkMatchSSBlocked(b *testing.B) {
	b.Run("sparse-100k", matchSSScaleBench(sparseWorld, scaleSparseTargets, false))
	b.Run("sparse-100k-exhaustive", matchSSScaleBench(sparseWorld, scaleSparseTargets, true))
	b.Run("sparse-100k-fresh-store", matchSSSparseBench(true))
	b.Run("sparse-100k-new-matcher", matchSSSparseBench(false))
	b.Run("dense", matchSSScaleBench(denseWorld, 0, false))
	b.Run("dense-exhaustive", matchSSScaleBench(denseWorld, 0, true))
}
