// Command evserve matches a dataset universally and serves fusion queries
// over HTTP: the end state the paper motivates, where one query retrieves a
// person's electronic and visual information together.
//
// Usage:
//
//	evserve -data world.gob [-addr 127.0.0.1:8080] [-mode serial|parallel|cluster] [-workers 3]
//	        [-stream-window 0] [-stream-lateness 250] [-stream-shards 0]
//	        [-stream-shard-workers 0] [-shardd path]
//	        [-stream-checkpoint state.ckpt] [-stream-checkpoint-every 30s]
//	        [-mem-budget 0] [-spill-dir ""]
//
// Endpoints: /healthz, /match?eid=, /reverse?vid=, /trajectory?eid=,
// /whowasat?cell=&window=, /metricsz.
//
// With -stream-window > 0 a live stream engine runs alongside the batch
// index, adding POST /ingest (JSONL observations) and GET /stream (SSE
// resolutions); its gauges join /metricsz. With -stream-checkpoint the
// stream state is restored from the named file on startup (when present)
// and rewritten durably on the -stream-checkpoint-every interval, so a
// restarted server resumes instead of starting cold. With -mem-budget N
// both the batch shuffle and the sealed stream windows spill past N bytes
// of resident state (DESIGN.md §14); the spill_* gauges join /metricsz. With -stream-shards N > 0 the
// ingest path runs through the sharded router instead: observations partition
// by cell across N concurrent windowers, and /metricsz additionally carries
// the per-shard stream_shard<N>_ingested gauges plus stream_shards and
// stream_shard_redispatches. With -stream-shard-workers N > 0 the N shards
// run in separate evshardd worker processes over net/rpc (DESIGN.md §15),
// supervised and redispatched on death (a refused message fails the stream
// with stream.ErrShardFailed instead); -shardd names the worker binary
// (default: evshardd next to evserve, else on PATH), and the shardrpc_*
// worker gauges — spawns, kills, retries, redispatches, per-shard apply
// latency — join /metricsz.
//
// In cluster mode the matching phase runs on the fault-tolerant distributed
// runtime (an in-process coordinator plus -workers workers over localhost
// RPC); its recovery counters — retries, evictions, stale reports — are
// then served at /metricsz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"evmatching"
	"evmatching/internal/cluster"
	"evmatching/internal/metrics"
	"evmatching/internal/server"
	"evmatching/internal/shardrpc"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "evserve:", err)
		os.Exit(1)
	}
}

// startCluster boots an in-process coordinator and workers over localhost
// RPC and returns the adapted executor plus a shutdown function that joins
// every goroutine and removes the shared scratch directory.
func startCluster(workers int) (*cluster.Executor, func(), error) {
	dir, err := os.MkdirTemp("", "evserve-cluster-")
	if err != nil {
		return nil, nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Dir: dir})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = coord.Close()
		_ = os.RemoveAll(dir)
		return nil, nil, err
	}
	addr := coord.Serve(lis)
	reg := cluster.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w, err := cluster.NewWorker(addr, cluster.WorkerConfig{
			ID:       fmt.Sprintf("evserve-w%d", i),
			Dir:      dir,
			Registry: reg,
		})
		if err != nil {
			cancel()
			_ = coord.Close()
			wg.Wait()
			_ = os.RemoveAll(dir)
			return nil, nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	exec, err := cluster.NewExecutor(coord, reg)
	if err != nil {
		cancel()
		_ = coord.Close()
		wg.Wait()
		_ = os.RemoveAll(dir)
		return nil, nil, err
	}
	shutdown := func() {
		_ = coord.Close()
		cancel()
		wg.Wait()
		_ = os.RemoveAll(dir)
	}
	return exec, shutdown, nil
}

// publishClusterStats copies the coordinator's fault-recovery totals into the
// registry served at /metricsz.
func publishClusterStats(reg *metrics.Registry, stats cluster.Stats) {
	reg.Set("cluster.retries", stats.Retries)
	reg.Set("cluster.evictions", stats.Evictions)
	reg.Set("cluster.stale_reports", stats.StaleReports)
}

// publishBlockStats copies the batch matcher's posting-index totals into the
// registry served at /metricsz: how many scenario probes the split stage
// actually ran and how many the index pruned (DESIGN.md §13) — together, the
// scenarios of the windows the split scanned — and how many posting windows
// the match was first to touch in the store.
// The ratio gauge is an integer percent — the registry carries int64 gauges.
// A live stream engine publishes the same gauge names for its own incremental
// splits; last writer wins, and both describe the same pruning machinery.
func publishBlockStats(reg *metrics.Registry, rep *evmatching.Report) {
	reg.Set("block_candidates_total", rep.BlockCandidates)
	reg.Set("block_pruned_total", rep.BlockPruned)
	reg.Set("block_prune_ratio", stream.BlockPruneRatioPercent(rep.BlockCandidates, rep.BlockPruned))
	reg.Set("block_windows_materialised", rep.BlockMaterialised)
}

// publishSpillStats copies the batch run's out-of-core totals into the
// registry served at /metricsz. A live stream engine republishes the same
// gauge names with its own running totals; all-zero when -mem-budget is
// unset or never exceeded.
func publishSpillStats(reg *metrics.Registry, s spill.Snapshot) {
	reg.SetMany(map[string]int64{
		"spill_bytes_spilled": s.BytesSpilled,
		"spill_runs_written":  s.RunsWritten,
		"spill_runs_merged":   s.RunsMerged,
		"spill_reloads":       s.Reloads,
		"spill_evictions":     s.Evictions,
	})
}

// startStream builds the live-ingestion processor, resuming from the
// checkpoint file when one exists (either processor restores either image,
// the router at any shard count). A non-nil runner
// hosts the shards through it — the evshardd worker-process path — instead
// of in-process goroutines.
func startStream(cfg stream.Config, shards int, runner stream.ShardRunner, ckptPath string) (stream.Processor, error) {
	rcfg := stream.RouterConfig{Config: cfg, Shards: shards, Runner: runner}
	if ckptPath != "" {
		cf, err := os.Open(ckptPath)
		switch {
		case err == nil:
			defer cf.Close()
			if shards > 0 {
				return stream.RestoreRouter(rcfg, cf)
			}
			return stream.Restore(cfg, cf)
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to resume.
		default:
			return nil, err
		}
	}
	if shards > 0 {
		return stream.NewRouter(rcfg)
	}
	return stream.NewEngine(cfg)
}

// checkpointLoop rewrites the stream checkpoint on every tick, durably and
// atomically — the same fsync-before-and-after-rename sequence evstream and
// the spill run writer use — so a crashed or restarted server resumes from
// the last completed write instead of replaying from cold.
func checkpointLoop(proc stream.Processor, path string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		if err := spill.WriteFileAtomic(spill.OS{}, path, proc.Checkpoint); err != nil {
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
		modeName       = fs.String("mode", "serial", "matching mode: serial, parallel, or cluster")
		workers        = fs.Int("workers", 3, "worker count for -mode cluster")
		streamWindow   = fs.Int64("stream-window", 0, "enable live ingestion with this event-time window in ms (0 = off)")
		streamLateness = fs.Int64("stream-lateness", 250, "allowed lateness for live ingestion in ms")
		streamShards   = fs.Int("stream-shards", 0, "cell-range ingest shards for live ingestion (0 = unsharded single engine)")
		streamShardWks = fs.Int("stream-shard-workers", 0, "run N ingest shards in separate evshardd worker processes (mutually exclusive with -stream-shards)")
		sharddPath     = fs.String("shardd", "", "evshardd worker binary for -stream-shard-workers (default: next to evserve, else on PATH)")
		streamCkpt     = fs.String("stream-checkpoint", "", "stream checkpoint file: restored on startup when present, rewritten periodically")
		streamCkptIvl  = fs.Duration("stream-checkpoint-every", 30*time.Second, "interval between stream checkpoint writes (0 = only restore)")
		memBudget      = fs.Int64("mem-budget", 0, "bytes of in-memory shuffle and sealed-window state; past it, state spills to disk (0 = unlimited)")
		spillDir       = fs.String("spill-dir", "", "directory for spill files (default: OS temp dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return errors.New("-data is required")
	}
	if *streamShardWks > 0 && *streamShards > 0 {
		return errors.New("use either -stream-shards or -stream-shard-workers, not both")
	}
	if *streamWindow <= 0 {
		switch {
		case *streamShards > 0:
			return errors.New("-stream-shards needs -stream-window > 0")
		case *streamShardWks > 0:
			return errors.New("-stream-shard-workers needs -stream-window > 0")
		case *streamCkpt != "":
			return errors.New("-stream-checkpoint needs -stream-window > 0")
		}
	}
	ds, err := evmatching.LoadDataset(*data)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	opts := evmatching.Options{MemBudget: *memBudget, SpillDir: *spillDir}
	var clusterExec *cluster.Executor
	switch *modeName {
	case "serial":
		opts.Mode = evmatching.ModeSerial
	case "parallel":
		opts.Mode = evmatching.ModeParallel
	case "cluster":
		if *workers < 1 {
			return fmt.Errorf("-mode cluster needs -workers >= 1, got %d", *workers)
		}
		exec, shutdown, err := startCluster(*workers)
		if err != nil {
			return err
		}
		defer shutdown()
		opts.Mode = evmatching.ModeParallel
		opts.Executor = exec
		clusterExec = exec
	default:
		return fmt.Errorf("unknown mode %q", *modeName)
	}

	fmt.Printf("matching %d EIDs universally...\n", len(ds.AllEIDs()))
	start := time.Now()
	m, err := evmatching.NewMatcher(ds, opts)
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
	if clusterExec != nil {
		publishClusterStats(reg, clusterExec.Stats())
	}
	publishBlockStats(reg, rep)
	publishSpillStats(reg, rep.Spill)

	srvOpts := []server.Option{server.WithMetrics(reg.Snapshot)}
	if *streamWindow > 0 {
		scfg := stream.Config{
			Targets:    ds.AllEIDs(),
			WindowMS:   *streamWindow,
			LatenessMS: *streamLateness,
			Dim:        ds.Config.DescriptorDim(),
			MemBudget:  *memBudget,
			SpillDir:   *spillDir,
			Metrics:    reg,
		}
		nshards := *streamShards
		var runner stream.ShardRunner
		if *streamShardWks > 0 {
			nshards = *streamShardWks
			bin, err := shardrpc.ResolveWorkerBinary(*sharddPath)
			if err != nil {
				return err
			}
			sup := shardrpc.NewSupervisor(shardrpc.SupervisorConfig{
				Command: []string{bin},
				Metrics: reg,
				Stderr:  os.Stderr,
			})
			// The supervisor closes after the router (defers run LIFO), so
			// shard stop channels quiesce worker traffic before the
			// processes are torn down.
			defer sup.Close()
			runner = sup
		}
		proc, err := startStream(scfg, nshards, runner, *streamCkpt)
		if err != nil {
			return err
		}
		if router, ok := proc.(*stream.Router); ok {
			defer router.Close()
			if *streamShardWks > 0 {
				fmt.Printf("live ingestion sharded across %d evshardd worker processes\n", nshards)
			} else {
				fmt.Printf("live ingestion sharded across %d cell-range windowers\n", nshards)
			}
		}
		if n := proc.Ingested(); n > 0 {
			fmt.Printf("resumed stream state from %s at observation %d\n", *streamCkpt, n)
		}
		if *streamCkpt != "" && *streamCkptIvl > 0 {
			go checkpointLoop(proc, *streamCkpt, *streamCkptIvl)
		}
		srvOpts = append(srvOpts, server.WithStream(proc))
		fmt.Printf("live ingestion enabled: window %d ms, lateness %d ms, %d targets\n",
			*streamWindow, *streamLateness, len(ds.AllEIDs()))
	}
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
	return http.Serve(lis, srv)
}
