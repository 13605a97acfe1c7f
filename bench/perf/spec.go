// Package perf is the repository's end-to-end and per-layer benchmark: it
// generates every input from a seed, drives the matching system through its
// exported functions and its real binaries, verifies the outputs, and
// reports named metrics. BENCHMARK.json at the repository root mirrors the
// tables in this file; spec_test.go keeps the two in step.
package perf

// Metric names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics are reported, not gated, and carry none.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Workload names one set of generated inputs and the path they drive.
type Workload struct {
	Name string
	Why  string
}

// Workloads lists the benchmark's workloads. Each drives one path of the
// system, so that a change to one layer has a workload that exercises it
// and one that bypasses it.
var Workloads = []Workload{
	{"batch-paper", "paper world (1000 persons, density 60, 32 windows, universal targets): the V stage is ~85% of a match, so feature, vfilter and mapreduce do the work"},
	{"batch-sparse", "sparse-city 100k EIDs, 2000 targets: blocking.Build and the E stage are ~85% of a match, so a V-stage gain must show no change here"},
	{"stream-replay", "64k-observation log, 10% displaced inside the lateness, through the inline Engine: windowing and incremental split with no wire"},
	{"stream-remote", "same log through a 2-shard Router on two real evshardd processes: the gob wire and rpc hop a codec change must move"},
	{"stream-recover", "Engine.Checkpoint plus stream.Restore of the replayed engine: checkpoint encode beside restore replay"},
	{"serve-ingest", "practical world POSTed as 200-line JSONL to a real evserve with one SSE reader: HTTP, JSON decode and SSE carry over half the cost"},
}

// EndToEnd lists the gated metrics. Every workload reports every one of
// them; what latency_ms and items_per_s time on each workload is documented
// in bench/README.md. The bounds are the contract's maximum: on the shared
// 2-core machines the benchmark runs on, same-code medians of eight runs
// moved by up to 26 % by the clock between two sets taken forty minutes
// apart (bench/README.md), and the first cut's 8–10 % bounds rejected
// unchanged code.
var EndToEnd = []Metric{
	{"latency_ms", "ms", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"accuracy", "fraction", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer lists the metrics a traced run reports, layer by layer.
var PerLayer = []Metric{
	{"dataset.generate_s", "s", "lower", 0},
	{"dataset.events_flatten_s", "s", "lower", 0},

	{"core.e_stage_s", "s", "lower", 0},
	{"core.v_stage_s", "s", "lower", 0},
	{"core.match_warm_s", "s", "lower", 0},
	{"core.edp_match_s", "s", "lower", 0},
	{"core.selected_scenarios", "count", "lower", 0},
	{"core.refine_rounds", "count", "lower", 0},

	{"blocking.build_s", "s", "lower", 0},
	{"blocking.prune_ratio", "fraction", "higher", 0},
	{"blocking.candidates", "count", "lower", 0},

	{"partition.split_s", "s", "lower", 0},
	{"partition.scenarios_applied", "count", "lower", 0},

	{"feature.extract_ns_per_patch", "ns", "lower", 0},
	{"feature.maxsim_ns_per_row", "ns", "lower", 0},

	{"vfilter.extract_batch_s", "s", "lower", 0},
	{"vfilter.match_us_per_eid", "us", "lower", 0},
	{"vfilter.patches_extracted", "count", "lower", 0},
	{"vfilter.comparisons", "count", "lower", 0},

	{"mapreduce.parallel_match_s", "s", "lower", 0},
	{"mapreduce.parallel_ratio", "ratio", "higher", 0},

	{"spill.match_s", "s", "lower", 0},
	{"spill.bytes_spilled", "bytes", "lower", 0},
	{"spill.runs_written", "count", "lower", 0},
	{"spill.replay_obs_per_s", "1/s", "higher", 0},
	{"spill.reloads", "count", "lower", 0},

	{"cluster.match_s", "s", "lower", 0},
	{"cluster.retries", "count", "lower", 0},

	{"stream.router1_obs_per_s", "1/s", "higher", 0},
	{"stream.router2_obs_per_s", "1/s", "higher", 0},
	{"stream.windower_step_obs_per_s", "1/s", "higher", 0},
	{"stream.checkpoint_encode_s", "s", "lower", 0},
	{"stream.checkpoint_bytes", "bytes", "lower", 0},
	{"stream.restore_s", "s", "lower", 0},
	{"stream.v3_checkpoint_encode_s", "s", "lower", 0},
	{"stream.v3_restore_s", "s", "lower", 0},
	{"stream.finalize_s", "s", "lower", 0},
	{"stream.resolutions", "count", "higher", 0},
	{"stream.late_dropped", "count", "lower", 0},

	{"shardrpc.spawn_s", "s", "lower", 0},
	{"shardrpc.remote_obs_per_s", "1/s", "higher", 0},
	{"shardrpc.wire_roundtrip_us", "us", "lower", 0},
	{"shardrpc.wire_bytes_per_obs", "bytes", "lower", 0},
	{"shardrpc.retries", "count", "lower", 0},
	{"shardrpc.redispatches", "count", "lower", 0},
	{"shardrpc.fallbacks", "count", "lower", 0},

	{"server.start_s", "s", "lower", 0},
	{"server.noop_ingest_obs_per_s", "1/s", "higher", 0},
	{"server.served_obs_per_s", "1/s", "higher", 0},
	{"server.ack_p50_ms", "ms", "lower", 0},
	{"server.ack_p99_ms", "ms", "lower", 0},
	{"server.close_ack_mean_ms", "ms", "lower", 0},
	{"server.resolve_p50_ms", "ms", "lower", 0},
	{"server.resolve_p95_ms", "ms", "lower", 0},
	{"server.openloop_ack_p50_ms", "ms", "lower", 0},
	{"server.openloop_ack_p99_ms", "ms", "lower", 0},
	{"server.openloop_resolve_p50_ms", "ms", "lower", 0},
	{"server.openloop_resolve_p95_ms", "ms", "lower", 0},
	{"server.openloop_backlog_max", "count", "lower", 0},

	{"bench.loadgen_late_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_frac", "fraction", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.host_slowdown", "ratio", "lower", 0},
}
