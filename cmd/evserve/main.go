// Command evserve matches a dataset universally and serves fusion queries
// over HTTP: the end state the paper motivates, where one query retrieves a
// person's electronic and visual information together.
//
// Usage:
//
//	evserve -data world.bin [-addr 127.0.0.1:8080]
//	        [-stream-window 0] [-stream-lateness 250]
//	        [-stream-checkpoint state.ckpt] [-stream-checkpoint-every 30s]
//
// Endpoints: /healthz, /match?eid=, /reverse?vid=, /trajectory?eid=,
// /whowasat?cell=&window=, /metricsz, and the net/http/pprof profiles under
// /debug/pprof/.
//
// Start-up runs serial SS over every EID and indexes the result. With
// -stream-window > 0 a live stream Engine runs alongside the batch index,
// adding POST /ingest (JSONL observations) and GET /stream (SSE
// resolutions); /metricsz then reads its stream_* and block_* gauges at each
// request, the engine's block_* values over the start-up match's. With
// -stream-checkpoint the stream state is restored from the named file on
// startup (when present; an Engine reads any v4 image, a sharded Router's
// included) and rewritten durably on the -stream-checkpoint-every interval,
// so a restarted server resumes instead of starting cold.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"evmatching"
	"evmatching/internal/server"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "evserve:", err)
		os.Exit(1)
	}
}

// metricsz is the /metricsz snapshot: the start-up match's blocking
// totals — how many scenario probes the split stage actually ran and how
// many it pruned (DESIGN.md §13), together the scenarios of the
// windows the split scanned — and, with a live engine, its Gauges read at
// each request and laid over them: the engine's block_* values describe the
// same pruning machinery on its own incremental splits, and win. The ratio
// is an integer percent: the gauges are int64.
func metricsz(rep *evmatching.Report, eng *stream.Engine) func() map[string]int64 {
	batch := map[string]int64{
		"block_candidates_total": rep.BlockCandidates,
		"block_pruned_total":     rep.BlockPruned,
		"block_prune_ratio":      stream.BlockPruneRatioPercent(rep.BlockCandidates, rep.BlockPruned),
	}
	return func() map[string]int64 {
		out := maps.Clone(batch)
		if eng != nil {
			maps.Copy(out, eng.Gauges())
		}
		return out
	}
}

// startStream builds the live-ingestion engine, resuming from the checkpoint
// file when one exists.
func startStream(cfg stream.Config, ckptPath string) (*stream.Engine, error) {
	if ckptPath != "" {
		cf, err := os.Open(ckptPath)
		switch {
		case err == nil:
			defer cf.Close()
			return stream.Restore(cfg, cf)
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to resume.
		default:
			return nil, err
		}
	}
	return stream.NewEngine(cfg)
}

// checkpointLoop rewrites the stream checkpoint on every tick, durably and
// atomically — the same fsync-before-and-after-rename sequence evstream and
// the spill run writer use — so a crashed or restarted server resumes from
// the last completed write instead of replaying from cold.
func checkpointLoop(eng *stream.Engine, path string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		if err := spill.WriteFileAtomic(spill.OS{}, path, eng.Checkpoint); err != nil {
			fmt.Fprintln(os.Stderr, "evserve: stream checkpoint:", err)
		}
	}
}

// run starts the server; when ready is non-nil, the bound address is sent on
// it once the listener is up (used by tests).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("evserve", flag.ContinueOnError)
	var (
		data           = fs.String("data", "", "dataset file from evgen (required)")
		addr           = fs.String("addr", "127.0.0.1:8080", "listen address")
		streamWindow   = fs.Int64("stream-window", 0, "enable live ingestion with this event-time window in ms (0 = off)")
		streamLateness = fs.Int64("stream-lateness", 250, "allowed lateness for live ingestion in ms")
		streamCkpt     = fs.String("stream-checkpoint", "", "stream checkpoint file: restored on startup when present, rewritten periodically")
		streamCkptIvl  = fs.Duration("stream-checkpoint-every", 30*time.Second, "interval between stream checkpoint writes (0 = only restore)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return errors.New("-data is required")
	}
	if *streamWindow <= 0 && *streamCkpt != "" {
		return errors.New("-stream-checkpoint needs -stream-window > 0")
	}
	ds, err := evmatching.LoadDataset(*data)
	if err != nil {
		return err
	}
	fmt.Printf("matching %d EIDs universally...\n", len(ds.AllEIDs()))
	start := time.Now()
	m, err := evmatching.NewMatcher(ds, evmatching.Options{})
	if err != nil {
		return err
	}
	rep, err := m.MatchAll(context.Background())
	if err != nil {
		return err
	}
	idx, err := evmatching.BuildFusionIndex(ds, rep)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d pairs in %v (accuracy vs truth %.1f%%)\n",
		idx.Len(), time.Since(start).Round(time.Millisecond),
		rep.Accuracy(ds.TruthVID)*100)

	var srvOpts []server.Option
	var eng *stream.Engine
	if *streamWindow > 0 {
		eng, err = startStream(stream.Config{
			Targets:    ds.AllEIDs(),
			WindowMS:   *streamWindow,
			LatenessMS: *streamLateness,
			Dim:        ds.Config.DescriptorDim(),
		}, *streamCkpt)
		if err != nil {
			return err
		}
		if n := eng.Ingested(); n > 0 {
			fmt.Printf("resumed stream state from %s at observation %d\n", *streamCkpt, n)
		}
		if *streamCkpt != "" && *streamCkptIvl > 0 {
			go checkpointLoop(eng, *streamCkpt, *streamCkptIvl)
		}
		srvOpts = append(srvOpts, server.WithStream(eng))
		fmt.Printf("live ingestion enabled: window %d ms, lateness %d ms, %d targets\n",
			*streamWindow, *streamLateness, len(ds.AllEIDs()))
	}
	srvOpts = append(srvOpts, server.WithMetrics(metricsz(rep, eng)))
	srv, err := server.New(ds, idx, srvOpts...)
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving fusion queries on http://%s\n", lis.Addr())
	if ready != nil {
		ready <- lis.Addr().String()
	}
	return http.Serve(lis, withPprof(srv))
}

// withPprof serves the runtime profiles under /debug/pprof/ beside srv, on
// a mux of its own rather than http.DefaultServeMux, so the served path's
// costs can be profiled in place.
func withPprof(srv http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
