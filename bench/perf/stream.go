package perf

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

type streamMode int

const (
	// modeReplay replays the log through the inline Engine.
	modeReplay streamMode = iota
	// modeRemote replays it through a 2-shard Router whose windowers run in
	// two evshardd processes.
	modeRemote
	// modeRecover checkpoints a replayed Engine to memory and restores it.
	modeRecover
)

// remoteShards is the worker-process count of the remote workload: one per
// core of the 2-core machines the benchmark is sized for.
const remoteShards = 2

// chunkObs is how many Ingest calls one traced span covers.
const chunkObs = 1024

// streamWorkload drives internal/stream over a flattened, displaced
// paper-world log. All three modes share the world and the verification:
// the finalized fingerprint must equal the batch ScanInOrder match and no
// observation may be late-dropped.
type streamWorkload struct {
	mode  streamMode
	short bool

	genS, flattenS, spawnS float64
	ds                     *dataset.Dataset
	obs                    []stream.Observation
	scfg                   stream.Config
	sup                    *shardrpc.Supervisor
	base                   *stream.Engine // modeRecover: the replayed engine
	last                   stream.Processor
	lastRouter             *stream.Router
}

func (s *streamWorkload) rounds(float64) int { return 4 }
func (s *streamWorkload) singleOp() bool     { return false }

func (s *streamWorkload) setup(e *env, round int) error {
	seed := roundSeed(e.opts.Seed, round)
	var err error
	if s.ds, s.obs, s.genS, s.flattenS, err = streamWorld(e, paperConfig(seed, s.short), seed); err != nil {
		return err
	}
	s.scfg = streamConfig(s.ds)
	switch s.mode {
	case modeRemote:
		s.sup, s.spawnS, err = startSupervisor(e)
	case modeRecover:
		s.base, err = replayEngine(e.tr, s.scfg, s.obs, false)
	}
	return err
}

// streamWorld generates a world, flattens it to a time-ordered log and
// displaces a tenth of the observations inside the allowed lateness.
func streamWorld(e *env, cfg dataset.Config, seed int64) (ds *dataset.Dataset, obs []stream.Observation, genS, flattenS float64, err error) {
	end := e.tr.Span("dataset", "Generate")
	start := time.Now()
	ds, err = dataset.Generate(cfg)
	genS = time.Since(start).Seconds()
	end()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	end = e.tr.Span("stream", "EventsFromDataset")
	start = time.Now()
	_, obs, err = stream.EventsFromDataset(ds, windowMS, seed)
	flattenS = time.Since(start).Seconds()
	end()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return ds, Displace(obs, seed), genS, flattenS, nil
}

// startSupervisor builds a supervisor over the real evshardd binary and
// spawns its workers by routing one observation to each shard, so process
// start is part of set-up and never of a timed replay.
func startSupervisor(e *env) (*shardrpc.Supervisor, float64, error) {
	end := e.tr.Span("shardrpc", "spawn workers")
	defer end()
	start := time.Now()
	sup := shardrpc.NewSupervisor(shardrpc.SupervisorConfig{
		Command: []string{filepath.Join(e.opts.BinDir, "evshardd")},
	})
	e.procs.supervise(sup)
	r, err := stream.NewRouter(stream.RouterConfig{
		Config: stream.Config{Targets: []ids.EID{"prime"}, WindowMS: windowMS, LatenessMS: latenessMS, Dim: 2},
		Shards: remoteShards, Runner: sup,
	})
	if err != nil {
		sup.Close()
		return nil, 0, err
	}
	for shard := 0; shard < remoteShards; shard++ {
		// ShardOf is cell mod shard count, so cell i lands on shard i.
		o := stream.Observation{TS: 1, Kind: stream.KindE, Cell: geo.CellID(shard), EID: "prime", Attr: scenario.AttrInclusive}
		if _, err := r.Ingest(o); err != nil {
			r.Close()
			sup.Close()
			return nil, 0, err
		}
	}
	if err := r.Flush(); err != nil {
		r.Close()
		sup.Close()
		return nil, 0, err
	}
	if err := r.Close(); err != nil {
		sup.Close()
		return nil, 0, err
	}
	if st := sup.Stats(); st.Spawned != remoteShards || st.Fallbacks != 0 {
		sup.Close()
		return nil, 0, fmt.Errorf("spawned %d evshardd workers with %d fallbacks, want %d and 0 (is %s built?)",
			st.Spawned, st.Fallbacks, remoteShards, filepath.Join(e.opts.BinDir, "evshardd"))
	}
	return sup, time.Since(start).Seconds(), nil
}

// ingestAll feeds the whole log to p, one traced span per chunk.
func ingestAll(tr *Tracer, p stream.Processor, obs []stream.Observation) error {
	for lo := 0; lo < len(obs); lo += chunkObs {
		hi := min(lo+chunkObs, len(obs))
		end := tr.Span("stream", "Ingest chunk")
		for i := lo; i < hi; i++ {
			if _, err := p.Ingest(obs[i]); err != nil {
				end()
				return fmt.Errorf("ingest observation %d: %w", i, err)
			}
		}
		end()
	}
	return nil
}

// replayEngine builds an Engine and ingests the log, optionally flushing.
func replayEngine(tr *Tracer, scfg stream.Config, obs []stream.Observation, flush bool) (*stream.Engine, error) {
	end := tr.Span("stream", "NewEngine")
	eng, err := stream.NewEngine(scfg)
	end()
	if err != nil {
		return nil, err
	}
	if err := ingestAll(tr, eng, obs); err != nil {
		return nil, err
	}
	if flush {
		end := tr.Span("stream", "Flush")
		err = eng.Flush()
		end()
	}
	return eng, err
}

// replayRouter builds a Router over runner (nil = in-process shards),
// ingests the log and flushes. The caller closes the router.
func replayRouter(tr *Tracer, scfg stream.Config, shards int, runner stream.ShardRunner, obs []stream.Observation) (*stream.Router, error) {
	end := tr.Span("stream", "NewRouter")
	r, err := stream.NewRouter(stream.RouterConfig{Config: scfg, Shards: shards, Runner: runner})
	end()
	if err != nil {
		return nil, err
	}
	if err := ingestAll(tr, r, obs); err != nil {
		r.Close()
		return nil, err
	}
	end = tr.Span("stream", "Flush")
	err = r.Flush()
	end()
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// recoverEngine is the recover workload's operation: checkpoint to memory,
// then restore to a ready engine.
func recoverEngine(tr *Tracer, scfg stream.Config, eng *stream.Engine) (*stream.Engine, error) {
	var buf bytes.Buffer
	end := tr.Span("stream", "Checkpoint")
	err := eng.Checkpoint(&buf)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.Span("stream", "Restore")
	restored, err := stream.Restore(scfg, &buf)
	end()
	return restored, err
}

func (s *streamWorkload) warm(e *env) error {
	_, err := s.op(e)
	return err
}

func (s *streamWorkload) op(e *env) (opSample, error) {
	if s.lastRouter != nil {
		if err := s.lastRouter.Close(); err != nil {
			return opSample{}, err
		}
		s.lastRouter = nil
	}
	start := time.Now()
	var err error
	switch s.mode {
	case modeReplay:
		s.last, err = replayEngine(e.tr, s.scfg, s.obs, true)
	case modeRemote:
		s.lastRouter, err = replayRouter(e.tr, s.scfg, remoteShards, s.sup, s.obs)
		s.last = s.lastRouter
	case modeRecover:
		s.last, err = recoverEngine(e.tr, s.scfg, s.base)
	}
	return opSample{seconds: time.Since(start).Seconds(), items: float64(len(s.obs))}, err
}

// batchReference is the batch SS match under ScanInOrder: the reference a
// finalized stream replay must reproduce bit for bit.
func batchReference(ds *dataset.Dataset, targets []ids.EID) (*core.Report, error) {
	m, err := core.New(ds, core.Options{ScanOrder: core.ScanInOrder})
	if err != nil {
		return nil, err
	}
	return m.Match(context.Background(), targets)
}

// verify finalizes the last operation's processor and checks it against the
// batch reference, the late-drop counter and the supervisor's fallbacks.
func (s *streamWorkload) verify(_ *env, rr *roundResult) error {
	rep, err := s.last.Finalize(context.Background())
	if err != nil {
		return err
	}
	ref, err := batchReference(s.ds, s.scfg.Targets)
	if err != nil {
		return err
	}
	rr.check(rep.Fingerprint() == ref.Fingerprint(), "finalized fingerprint differs from the batch ScanInOrder match")
	rr.check(s.last.LateDropped() == 0, "%d observations late-dropped, want 0", s.last.LateDropped())
	rr.check(s.last.Ingested() == int64(len(s.obs)), "processor ingested %d observations, log has %d", s.last.Ingested(), len(s.obs))
	if s.sup != nil {
		st := s.sup.Stats()
		rr.check(st.Fallbacks == 0, "%d shard incarnations fell back in-process", st.Fallbacks)
		rr.check(st.Redispatches == 0, "%d worker deaths redispatched", st.Redispatches)
	}
	rr.accuracy, rr.scored = rep.Accuracy(s.ds.TruthVID), len(rep.Targets)
	return nil
}

func (s *streamWorkload) teardown(*env) {
	if s.lastRouter != nil {
		s.lastRouter.Close()
		s.lastRouter = nil
	}
	if s.sup != nil {
		s.sup.Close()
		s.sup = nil
	}
	s.ds, s.obs, s.base, s.last = nil, nil, nil, nil
}

func (s *streamWorkload) layers(*env) (*probeInput, error) {
	return &probeInput{
		ds: s.ds, targets: s.scfg.Targets, genS: s.genS,
		logDS: s.ds, obs: s.obs, scfg: s.scfg, flattenS: s.flattenS,
	}, nil
}
