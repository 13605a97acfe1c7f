package perf

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"evmatching/internal/blocking"
	"evmatching/internal/cluster"
	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/fusion"
	"evmatching/internal/ids"
	"evmatching/internal/partition"
	"evmatching/internal/scenario"
	"evmatching/internal/server"
	"evmatching/internal/shardrpc"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
	"evmatching/internal/vfilter"
)

// probeInput is the world the per-layer probes run on. The batch layers
// (core, blocking, partition, feature, vfilter, mapreduce, cluster, batch
// spill) are probed on the workload's own dataset and targets, so their
// numbers reflect the workload's shape. The stream, shardrpc and server
// layers need an observation log: the workload's own where it has one,
// else a paper-scale log generated from the same seed.
type probeInput struct {
	ds      *dataset.Dataset
	targets []ids.EID
	genS    float64

	logDS    *dataset.Dataset
	obs      []stream.Observation // arrival order, no sentinel
	scfg     stream.Config
	flattenS float64

	// served holds the served-path inputs when the workload built them.
	served *servedInput
}

// servedInput is what a session against evserve needs.
type servedInput struct {
	dataPath string
	obs      []stream.Observation // with sentinel
	bodies   [][]byte
	want     map[ids.EID]ids.VID
	startS   float64
}

// addProbeLog gives a batch world the paper-scale log the stream-side
// probes run on.
func (in *probeInput) addProbeLog(e *env, seed int64, short bool) error {
	ds, obs, _, flattenS, err := streamWorld(e, paperConfig(seed, short), seed)
	if err != nil {
		return err
	}
	in.logDS, in.obs, in.scfg, in.flattenS = ds, obs, streamConfig(ds), flattenS
	return nil
}

// probes accumulates per-layer metric values by name.
type probes struct {
	e  *env
	in *probeInput
	m  map[string]float64
}

// timed runs fn inside a span of the named layer and returns its wall time.
func (p *probes) timed(layer, name string, fn func() error) (float64, error) {
	runtime.GC()
	end := p.e.tr.Span(layer, name)
	start := time.Now()
	err := fn()
	secs := time.Since(start).Seconds()
	end()
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", layer, name, err)
	}
	return secs, nil
}

// runProbes measures every per-layer metric except the three the traced
// run itself supplies (bench.*).
func runProbes(e *env, in *probeInput) (map[string]float64, error) {
	p := &probes{e: e, in: in, m: map[string]float64{
		"dataset.generate_s":       in.genS,
		"dataset.events_flatten_s": in.flattenS,
	}}
	for _, group := range []func() error{
		p.core, p.blockingPartition, p.featureVFilter, p.parallelSpillCluster,
		p.stream, p.shardrpc, p.server,
	} {
		if err := group(); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

// match builds a matcher with opts and matches the probe targets.
func (p *probes) match(opts core.Options) (*core.Report, error) {
	m, err := core.New(p.in.ds, opts)
	if err != nil {
		return nil, err
	}
	return m.Match(context.Background(), p.in.targets)
}

func (p *probes) core() error {
	var cold *core.Report
	var m *core.Matcher
	coldS, err := p.timed("core", "New+Match (cold)", func() (err error) {
		if m, err = core.New(p.in.ds, core.Options{}); err != nil {
			return err
		}
		cold, err = m.Match(context.Background(), p.in.targets)
		return err
	})
	if err != nil {
		return err
	}
	p.m["core.e_stage_s"] = cold.ETime.Seconds()
	p.m["core.v_stage_s"] = cold.VTime.Seconds()
	p.m["core.selected_scenarios"] = float64(cold.SelectedScenarios)
	p.m["core.refine_rounds"] = float64(cold.RefineRounds)
	p.m["blocking.prune_ratio"] = cold.BlockPruneRatio()
	p.m["blocking.candidates"] = float64(cold.BlockCandidates)
	p.m["mapreduce.parallel_ratio"] = coldS // divided by the parallel time below

	// The second Match reuses the matcher's blocking index.
	if p.m["core.match_warm_s"], err = p.timed("core", "Match (warm)", func() error {
		_, err := m.Match(context.Background(), p.in.targets)
		return err
	}); err != nil {
		return err
	}
	p.m["core.edp_match_s"], err = p.timed("core", "New+Match (EDP)", func() error {
		_, err := p.match(core.Options{Algorithm: core.AlgorithmEDP})
		return err
	})
	return err
}

func (p *probes) blockingPartition() error {
	store := p.in.ds.Store
	var err error
	if p.m["blocking.build_s"], err = p.timed("blocking", "Build", func() error {
		blocking.Build(store, blocking.DefaultGeometry())
		return nil
	}); err != nil {
		return err
	}
	var part *partition.Partition
	p.m["partition.split_s"], err = p.timed("partition", "New+SplitBy", func() (err error) {
		if part, err = partition.New(p.in.targets); err != nil {
			return err
		}
		for _, w := range store.Windows() {
			for _, id := range store.AtWindow(w) {
				if part.Done() {
					return nil
				}
				part.SplitBy(store.E(id))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["partition.scenarios_applied"] = float64(len(part.Recorded()))
	return nil
}

// Probe sample caps: enough work for a steady per-item figure without
// letting a 100k-EID world run for minutes.
const (
	maxProbePatches = 20000
	maxProbeEIDs    = 500
	maxSimReps      = 50
)

func (p *probes) featureVFilter() error {
	ds := p.in.ds
	store := ds.Store
	xt := feature.Extractor{Dim: ds.Config.DescriptorDim(), WorkFactor: 4}

	var patches []feature.Patch
	var withV []scenario.ID
	for id := scenario.ID(0); int(id) < store.Len(); id++ {
		v := store.V(id)
		if v == nil {
			continue
		}
		withV = append(withV, id)
		for _, d := range v.Detections {
			if len(patches) < maxProbePatches {
				patches = append(patches, d.Patch)
			}
		}
	}
	if len(patches) == 0 {
		return fmt.Errorf("feature probe: world has no detections")
	}
	dst := make(feature.Vector, xt.Dim)
	var buf feature.ExtractBuf
	secs, err := p.timed("feature", "ExtractIntoBuf", func() error {
		for i := range patches {
			if err := xt.ExtractIntoBuf(patches[i], dst, &buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["feature.extract_ns_per_patch"] = secs * 1e9 / float64(len(patches))

	f, err := vfilter.New(store, vfilter.Config{Extractor: xt, AcceptMajority: 0.7})
	if err != nil {
		return err
	}
	if p.m["vfilter.extract_batch_s"], err = p.timed("vfilter", "ExtractBatch", func() error {
		return f.ExtractBatch(withV)
	}); err != nil {
		return err
	}
	p.m["vfilter.patches_extracted"] = float64(f.Stats().Extractions)

	// MaxSim over the matrices the filter just extracted, one query per
	// scenario, repeated for a measurable total.
	var mats []*feature.Matrix
	rows := 0
	for _, id := range withV {
		if len(mats) == 64 {
			break
		}
		vs, err := f.Features(id)
		if err != nil {
			return err
		}
		m, err := feature.MatrixFrom(vs)
		if err != nil {
			return err
		}
		mats = append(mats, m)
		rows += m.Rows()
	}
	secs, err = p.timed("feature", "MaxSim", func() error {
		for rep := 0; rep < maxSimReps; rep++ {
			for _, m := range mats {
				feature.MaxSim(m.Row(0), m)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["feature.maxsim_ns_per_row"] = secs * 1e9 / float64(rows*maxSimReps)

	// Filter.Match per target over the first scenarios that hold it
	// inclusively, as many as the matcher's default list length.
	ix := blocking.Build(store, blocking.DefaultGeometry())
	targets := p.in.targets[:min(len(p.in.targets), maxProbeEIDs)]
	lists := make([][]scenario.ID, len(targets))
	for i, t := range targets {
		for _, w := range store.Windows() {
			if len(lists[i]) >= 3 {
				break
			}
			lists[i] = append(lists[i], ix.InclusiveAt(t, w)...)
		}
	}
	secs, err = p.timed("vfilter", "Match", func() error {
		for i, t := range targets {
			if len(lists[i]) == 0 {
				continue
			}
			if _, err := f.Match(t, lists[i], nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["vfilter.match_us_per_eid"] = secs * 1e6 / float64(len(targets))
	p.m["vfilter.comparisons"] = float64(f.Stats().Comparisons)
	return nil
}

// spillShuffleBudget forces every shuffle bucket of a parallel match to
// spill, as internal/benchsuite's MatchSSSpill row does; the shuffle's
// working set is not observable from outside the executor.
const spillShuffleBudget = 4 << 10

func (p *probes) parallelSpillCluster() error {
	workers := runtime.NumCPU()
	parS, err := p.timed("mapreduce", "New+Match (parallel)", func() error {
		_, err := p.match(core.Options{Mode: core.ModeParallel, Workers: workers})
		return err
	})
	if err != nil {
		return err
	}
	p.m["mapreduce.parallel_match_s"] = parS
	p.m["mapreduce.parallel_ratio"] /= parS

	var spilled *core.Report
	if p.m["spill.match_s"], err = p.timed("spill", "New+Match (budgeted)", func() (err error) {
		spilled, err = p.match(core.Options{
			Mode: core.ModeParallel, Workers: workers,
			MemBudget: spillShuffleBudget, SpillDir: p.e.tmp,
		})
		return err
	}); err != nil {
		return err
	}
	p.m["spill.bytes_spilled"] = float64(spilled.Spill.BytesSpilled)
	p.m["spill.runs_written"] = float64(spilled.Spill.RunsWritten)

	exec, shutdown, err := startCluster(p.e.tmp, 2)
	if err != nil {
		return err
	}
	defer shutdown()
	if p.m["cluster.match_s"], err = p.timed("cluster", "New+Match (2 workers)", func() error {
		_, err := p.match(core.Options{Mode: core.ModeParallel, Executor: exec})
		return err
	}); err != nil {
		return err
	}
	p.m["cluster.retries"] = float64(exec.Stats().Retries)
	return nil
}

// startCluster boots a coordinator and in-process workers over localhost
// rpc, the deployment evserve -mode cluster uses.
func startCluster(tmp string, workers int) (*cluster.Executor, func(), error) {
	dir, err := os.MkdirTemp(tmp, "cluster-")
	if err != nil {
		return nil, nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, nil, err
	}
	addr := coord.Serve(lis)
	reg := cluster.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	shutdown := func() {
		coord.Close()
		cancel()
		wg.Wait()
	}
	for i := 0; i < workers; i++ {
		w, err := cluster.NewWorker(addr, cluster.WorkerConfig{ID: fmt.Sprintf("evperf-w%d", i), Dir: dir, Registry: reg})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // returns when the context is cancelled
		}()
	}
	exec, err := cluster.NewExecutor(coord, reg)
	if err != nil {
		shutdown()
		return nil, nil, err
	}
	return exec, shutdown, nil
}

func (p *probes) stream() error {
	in := p.in
	nobs := float64(len(in.obs))
	for _, shards := range []int{1, 2} {
		var r *stream.Router
		secs, err := p.timed("stream", fmt.Sprintf("Router replay (%d in-process shards)", shards), func() (err error) {
			r, err = replayRouter(p.e.tr, in.scfg, shards, nil, in.obs)
			return err
		})
		if err != nil {
			return err
		}
		p.m[fmt.Sprintf("stream.router%d_obs_per_s", shards)] = nobs / secs
		if shards == 2 {
			var buf bytes.Buffer
			if p.m["stream.v3_checkpoint_encode_s"], err = p.timed("stream", "Router.Checkpoint", func() error {
				return r.Checkpoint(&buf)
			}); err != nil {
				r.Close()
				return err
			}
			var restored *stream.Router
			p.m["stream.v3_restore_s"], err = p.timed("stream", "RestoreRouter", func() (err error) {
				restored, err = stream.RestoreRouter(stream.RouterConfig{Config: in.scfg, Shards: shards}, &buf)
				return err
			})
			if err != nil {
				r.Close()
				return err
			}
			restored.Close()
		}
		if err := r.Close(); err != nil {
			return err
		}
	}

	// An unflushed engine holds sealed scenarios and open buckets both.
	eng, err := replayEngine(nil, in.scfg, in.obs, false)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if p.m["stream.checkpoint_encode_s"], err = p.timed("stream", "Engine.Checkpoint", func() error {
		return eng.Checkpoint(&buf)
	}); err != nil {
		return err
	}
	p.m["stream.checkpoint_bytes"] = float64(buf.Len())
	if p.m["stream.restore_s"], err = p.timed("stream", "Restore", func() error {
		_, err := stream.Restore(in.scfg, &buf)
		return err
	}); err != nil {
		return err
	}
	if p.m["stream.finalize_s"], err = p.timed("stream", "Engine.Finalize", func() error {
		_, err := eng.Finalize(context.Background())
		return err
	}); err != nil {
		return err
	}
	p.m["stream.resolutions"] = float64(len(eng.Resolutions()))
	p.m["stream.late_dropped"] = float64(eng.LateDropped())

	// The spill tier at a quarter of the sealed working set: pixel patches
	// plus the per-detection overhead the engine charges.
	var working int64
	for _, o := range in.obs {
		if o.Patch != nil {
			working += int64(len(o.Patch.Pix)) + 64
		}
	}
	budgeted := in.scfg
	budgeted.MemBudget = working / 4
	budgeted.SpillDir = p.e.tmp
	var snap spill.Snapshot
	secs, err := p.timed("spill", "Engine replay (budgeted)", func() error {
		eng, err := replayEngine(p.e.tr, budgeted, in.obs, true)
		if err == nil {
			snap = eng.SpillStats()
		}
		return err
	})
	if err != nil {
		return err
	}
	p.m["spill.replay_obs_per_s"] = nobs / secs
	p.m["spill.reloads"] = float64(snap.Reloads)
	return nil
}

func (p *probes) shardrpc() error {
	in := p.in
	// A windower driven directly, with close rounds issued by the
	// watermark rule; its emissions are the wire payloads of this log.
	w, err := stream.NewShardWindower(stream.ShardParams{WindowMS: windowMS, Dim: in.scfg.Dim, WorkFactor: 4}, nil)
	if err != nil {
		return err
	}
	_, frontier := ClosingIndex(in.obs)
	var outs []stream.ShardOut
	secs, err := p.timed("stream", "ShardWindower.Step", func() error {
		minOpen, round := 0, 0
		closeTo := func(target int) error {
			round++
			out, err := w.Step(stream.ShardMsg{Kind: stream.ShardMsgClose, Round: round, Target: target})
			if err == nil {
				outs = append(outs, *out)
			}
			return err
		}
		for i, o := range in.obs {
			if _, err := w.Step(stream.ShardMsg{Pos: int64(i), Kind: stream.ShardMsgObs, Obs: o}); err != nil {
				return err
			}
			if frontier[i] > minOpen {
				minOpen = frontier[i]
				if err := closeTo(minOpen); err != nil {
					return err
				}
			}
		}
		return closeTo(int(in.obs[len(in.obs)-1].TS/windowMS) + 2)
	})
	if err != nil {
		return err
	}
	p.m["stream.windower_step_obs_per_s"] = float64(len(in.obs)) / secs

	// One gob stream carries every reply, as one rpc connection does, so
	// type descriptors travel once.
	var wire bytes.Buffer
	enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
	var wireBytes int
	secs, err = p.timed("shardrpc", "gob ApplyReply round trip", func() error {
		for i := range outs {
			if err := enc.Encode(&shardrpc.ApplyReply{Outs: outs[i : i+1]}); err != nil {
				return err
			}
			wireBytes += wire.Len()
			var got shardrpc.ApplyReply
			if err := dec.Decode(&got); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["shardrpc.wire_roundtrip_us"] = secs * 1e6 / float64(len(outs))
	p.m["shardrpc.wire_bytes_per_obs"] = float64(wireBytes) / float64(len(in.obs))

	sup, spawnS, err := startSupervisor(p.e)
	if err != nil {
		return err
	}
	defer sup.Close()
	p.m["shardrpc.spawn_s"] = spawnS
	secs, err = p.timed("shardrpc", "Router replay (2 evshardd)", func() error {
		r, err := replayRouter(p.e.tr, in.scfg, remoteShards, sup, in.obs)
		if err != nil {
			return err
		}
		return r.Close()
	})
	if err != nil {
		return err
	}
	st := sup.Stats()
	p.m["shardrpc.remote_obs_per_s"] = float64(len(in.obs)) / secs
	p.m["shardrpc.retries"] = float64(st.Retries)
	p.m["shardrpc.redispatches"] = float64(st.Redispatches)
	p.m["shardrpc.fallbacks"] = float64(st.Fallbacks)
	return nil
}

// Open-loop session parameters: a fixed rate well under the server's
// closed-loop throughput, held for a bounded slice of the log.
const (
	openLoopObsPerS = 16000
	openLoopSeconds = 5
)

func (p *probes) server() error {
	in := p.in
	sv := in.served
	if sv == nil {
		sv = &servedInput{obs: WithSentinel(in.obs), dataPath: filepath.Join(p.e.tmp, "probe-world.gob")}
		var err error
		if sv.bodies, err = PostBodies(sv.obs); err != nil {
			return err
		}
		if err = in.logDS.SaveFile(sv.dataPath); err != nil {
			return err
		}
		defer os.Remove(sv.dataPath)
		if sv.want, err = referenceResolutions(in.scfg, sv.obs); err != nil {
			return err
		}
	}

	// The handler alone: POST /ingest over a processor that does nothing.
	m, err := core.New(in.logDS, core.Options{})
	if err != nil {
		return err
	}
	rep, err := m.MatchAll(context.Background())
	if err != nil {
		return err
	}
	idx, err := fusion.BuildIndex(in.logDS, rep)
	if err != nil {
		return err
	}
	h, err := server.New(in.logDS, idx, server.WithStream(noopProcessor{}))
	if err != nil {
		return err
	}
	secs, err := p.timed("server", "POST /ingest (no-op processor)", func() error {
		for i, body := range sv.bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("POST %d: status %d", i, rec.Code)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["server.noop_ingest_obs_per_s"] = float64(len(sv.obs)) / secs

	session := func(bodies [][]byte, obs []stream.Observation, want int, interval time.Duration) (*sessionStats, float64, error) {
		srv, startS, err := startServer(p.e, sv.dataPath)
		if err != nil {
			return nil, 0, err
		}
		defer srv.stop()
		st, err := runSession(p.e, srv.base, bodies, obs, want, interval)
		return st, startS, err
	}

	closed, startS, err := session(sv.bodies, sv.obs, len(sv.want), 0)
	if err != nil {
		return fmt.Errorf("closed-loop session: %w", err)
	}
	p.m["server.start_s"] = startS
	p.m["server.served_obs_per_s"] = float64(len(sv.obs)) / closed.wallS
	p.m["server.ack_p50_ms"] = Median(closed.ackMS)
	p.m["server.ack_p99_ms"] = Quantile(closed.ackMS, 0.99)
	p.m["server.close_ack_mean_ms"] = Mean(closed.closeMS)
	p.m["server.resolve_p50_ms"] = Median(closed.resolveMS)
	p.m["server.resolve_p95_ms"] = Quantile(closed.resolveMS, 0.95)

	// The open loop holds a fixed rate for a prefix of the log; how many
	// resolutions that prefix yields comes from the same reference replay.
	nPosts := min(len(sv.bodies), openLoopObsPerS*openLoopSeconds/postLines)
	prefix := sv.obs[:min(len(sv.obs), nPosts*postLines)]
	wantPrefix, err := referenceResolutions(in.scfg, prefix)
	if err != nil {
		return err
	}
	interval := time.Second * postLines / openLoopObsPerS
	open, _, err := session(sv.bodies[:nPosts], prefix, len(wantPrefix), interval)
	if err != nil {
		return fmt.Errorf("open-loop session: %w", err)
	}
	p.m["server.openloop_ack_p50_ms"] = Median(open.ackMS)
	p.m["server.openloop_ack_p99_ms"] = Quantile(open.ackMS, 0.99)
	p.m["server.openloop_resolve_p50_ms"] = Median(open.resolveMS)
	p.m["server.openloop_resolve_p95_ms"] = Quantile(open.resolveMS, 0.95)
	p.m["server.openloop_backlog_max"] = float64(open.backlog)
	p.m["bench.loadgen_late_p99_ms"] = Quantile(open.lateMS, 0.99)
	return nil
}

// noopProcessor accepts every observation and does nothing with it: what
// remains of a POST /ingest is HTTP handling, line scanning and JSON decode.
type noopProcessor struct{}

func (noopProcessor) Ingest(stream.Observation) (bool, error) { return true, nil }
func (noopProcessor) Ingested() int64                         { return 0 }
func (noopProcessor) LateDropped() int64                      { return 0 }
func (noopProcessor) OpenWindows() int                        { return 0 }
func (noopProcessor) Watermark() (int64, bool)                { return 0, false }
func (noopProcessor) Resolutions() []stream.Resolution        { return nil }
func (noopProcessor) Subscribe() ([]stream.Resolution, <-chan stream.Resolution, func()) {
	return nil, nil, func() {}
}
func (noopProcessor) Flush() error               { return nil }
func (noopProcessor) Checkpoint(io.Writer) error { return nil }
func (noopProcessor) SpillStats() spill.Snapshot { return spill.Snapshot{} }
func (noopProcessor) Finalize(context.Context) (*core.Report, error) {
	return nil, fmt.Errorf("noop processor cannot finalize")
}
