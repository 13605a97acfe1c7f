// Command evstream replays a JSONL observation log (produced by evgen
// -events) through the incremental stream engine: observations fold into
// event-time windows, the watermark closes them, the partition refines
// incrementally, and resolutions stream out the moment an EID's candidate
// set becomes a singleton. With -finalize (the default) the replay ends in
// the batch-equivalent final match, serial SS over the stream-built store,
// whose fingerprint is byte-identical to running batch SS over the same data.
//
// Usage:
//
//	evstream -log obs.jsonl [-targets aa:bb:...,...] [-lateness-ms 250]
//	         [-speed 0] [-seed 1]
//	         [-shards 0] [-shard-workers 0] [-shardd path] [-shard-kill spec]
//	         [-checkpoint state.ckpt] [-checkpoint-every 2000]
//	         [-max-events 0] [-finalize] [-mem-budget 0] [-spill-dir ""] [-v]
//
// With -shards N > 0 the replay runs through the sharded router: N
// concurrent per-cell-range windowers behind a cell-partitioning router,
// producing the same resolutions and the same final fingerprint as the
// unsharded engine (checkpoints then record the shard count; an engine's
// image and a router's both restore into any shard count).
//
// With -shard-workers N > 0 the N shards run in separate evshardd worker
// processes over net/rpc (DESIGN.md §15) instead of in-process goroutines:
// same router, same fingerprint, but each windower lives in its own
// process, supervised: a worker death is redispatched onto a replay of the
// journal, a message a worker refuses fails the run. -shardd names the worker
// binary (default: evshardd next to evstream, else on PATH); -shard-kill
// "shard@step,..." SIGKILLs workers on a script, the chaos drill CI runs to
// prove a killed worker's shard recovers bit-identically.
//
// When -checkpoint names an existing file the replay resumes from it,
// skipping the observations the checkpointed engine already ingested — the
// crash-recovery path the stream chaos tests exercise.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"evmatching/internal/ids"
	"evmatching/internal/shardrpc"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evstream:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("evstream", flag.ContinueOnError)
	var (
		logPath    = fs.String("log", "", "JSONL observation log from evgen -events (required)")
		targetList = fs.String("targets", "", "comma-separated EIDs to match (default: every EID sighted in the log)")
		latenessMS = fs.Int64("lateness-ms", 250, "allowed lateness in event-time milliseconds")
		speed      = fs.Float64("speed", 0, "replay pacing: event-time speedup factor (0 = as fast as possible)")
		seed       = fs.Int64("seed", 1, "matcher seed")
		shards     = fs.Int("shards", 0, "cell-range ingest shards (0 = unsharded single engine)")
		shardWkrs  = fs.Int("shard-workers", 0, "run N ingest shards in separate evshardd worker processes (mutually exclusive with -shards)")
		sharddPath = fs.String("shardd", "", "evshardd worker binary for -shard-workers (default: next to evstream, else on PATH)")
		shardKill  = fs.String("shard-kill", "", "scripted chaos kills for -shard-workers: comma-separated shard@step entries")
		ckptPath   = fs.String("checkpoint", "", "checkpoint file: resumed from when present, rewritten during replay")
		ckptEvery  = fs.Int64("checkpoint-every", 2000, "observations between checkpoint writes")
		maxEvents  = fs.Int64("max-events", 0, "stop after this log position (0 = whole log)")
		finalize   = fs.Bool("finalize", true, "flush and run the batch-equivalent final match")
		memBudget  = fs.Int64("mem-budget", 0, "bytes of sealed-window state kept in memory; past it, state spills to disk (0 = unlimited)")
		spillDir   = fs.String("spill-dir", "", "directory for spill files (default: OS temp dir)")
		verbose    = fs.Bool("v", false, "print every resolution as it is emitted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return errors.New("-log is required")
	}
	if *shardWkrs > 0 && *shards > 0 {
		return errors.New("use either -shards or -shard-workers, not both")
	}
	if *shardKill != "" && *shardWkrs == 0 {
		return errors.New("-shard-kill needs -shard-workers")
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	hdr, obs, err := stream.ReadLog(f)
	f.Close()
	if err != nil {
		return err
	}

	var targets []ids.EID
	if *targetList != "" {
		for _, s := range strings.Split(*targetList, ",") {
			if s = strings.TrimSpace(s); s != "" {
				targets = append(targets, ids.EID(s))
			}
		}
	} else {
		sighted := make(map[ids.EID]bool)
		for _, o := range obs {
			if o.Kind == stream.KindE {
				sighted[o.EID] = true
			}
		}
		targets = ids.SortedEIDKeys(sighted)
	}
	if len(targets) == 0 {
		return errors.New("no targets: the log has no E observations and -targets is empty")
	}

	cfg := stream.Config{
		Targets:    targets,
		WindowMS:   hdr.WindowMS,
		LatenessMS: *latenessMS,
		Dim:        hdr.Dim,
		Seed:       *seed,
		MemBudget:  *memBudget,
		SpillDir:   *spillDir,
	}

	// With -shard-workers the shards run in supervised evshardd processes:
	// same router and checkpoint formats, different shard hosting. The
	// supervisor closes after the router (defers run LIFO), so in-flight
	// worker calls see the router's stop channels first.
	nshards := *shards
	var sup *shardrpc.Supervisor
	if *shardWkrs > 0 {
		nshards = *shardWkrs
		bin, err := shardrpc.ResolveWorkerBinary(*sharddPath)
		if err != nil {
			return err
		}
		plan, err := shardrpc.ParseKillSpec(*shardKill)
		if err != nil {
			return err
		}
		sup = shardrpc.NewSupervisor(shardrpc.SupervisorConfig{
			Command:  []string{bin},
			KillPlan: plan,
			Stderr:   os.Stderr,
		})
		defer sup.Close()
	}

	// Resume from the checkpoint when one exists; otherwise start fresh.
	// Either processor restores either image; the sharded router
	// redistributes the open buckets by cell.
	rcfg := stream.RouterConfig{Config: cfg, Shards: nshards}
	if sup != nil {
		rcfg.Runner = sup
	}
	var e stream.Processor
	if *ckptPath != "" {
		cf, err := os.Open(*ckptPath)
		switch {
		case err == nil:
			if nshards > 0 {
				e, err = stream.RestoreRouter(rcfg, cf)
			} else {
				e, err = stream.Restore(cfg, cf)
			}
			cf.Close()
			if err != nil {
				return fmt.Errorf("resume from %s: %w", *ckptPath, err)
			}
			fmt.Fprintf(out, "resumed from %s at observation %d\n", *ckptPath, e.Ingested())
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to resume.
		default:
			return err
		}
	}
	if e == nil {
		if nshards > 0 {
			e, err = stream.NewRouter(rcfg)
		} else {
			e, err = stream.NewEngine(cfg)
		}
		if err != nil {
			return err
		}
	}
	if r, ok := e.(*stream.Router); ok {
		defer r.Close()
	}

	start := e.Ingested()
	if start > int64(len(obs)) {
		return fmt.Errorf("checkpoint is ahead of the log: %d ingested, log has %d", start, len(obs))
	}
	stop := int64(len(obs))
	if *maxEvents > 0 && *maxEvents < stop {
		stop = *maxEvents
	}

	backlog, ch, cancel := e.Subscribe()
	defer cancel()
	if *verbose {
		for _, r := range backlog {
			printResolution(out, r)
		}
	}

	lastTS := int64(-1)
	for i := start; i < stop; i++ {
		o := obs[i]
		if *speed > 0 && lastTS >= 0 && o.TS > lastTS {
			time.Sleep(time.Duration(float64(o.TS-lastTS) / *speed * float64(time.Millisecond)))
		}
		lastTS = o.TS
		if _, err := e.Ingest(o); err != nil {
			return fmt.Errorf("observation %d: %w", i, err)
		}
		if *verbose {
			drainResolutions(ch, out)
		}
		if *ckptPath != "" && *ckptEvery > 0 && e.Ingested()%*ckptEvery == 0 {
			if err := writeCheckpoint(e, *ckptPath); err != nil {
				return err
			}
		}
	}
	if *ckptPath != "" && stop > start {
		if err := writeCheckpoint(e, *ckptPath); err != nil {
			return err
		}
	}

	// One greppable line per run for the cluster-smoke CI job: did workers
	// spawn, did the scripted kills fire, did redispatch recover them.
	printWorkerStats := func() {
		if sup == nil {
			return
		}
		st := sup.Stats()
		var rst stream.RouterStats
		if r, ok := e.(*stream.Router); ok {
			rst = r.Stats()
		}
		// journal_len is what a replacement worker would be replayed, per
		// shard: nothing after a finalize, the open windows mid-log.
		fmt.Fprintf(out, "shard workers: spawned=%d kills=%d redispatches=%d retries=%d fallbacks=%d wire_sent=%d wire_received=%d frames=%d journal_len=%v\n",
			st.Spawned, st.Kills, rst.Redispatches, st.Retries, st.Fallbacks, st.WireBytesSent, st.WireBytesReceived, st.Frames, rst.JournalLen)
	}

	if !*finalize {
		fmt.Fprintf(out, "replayed %d/%d observations (%d late-dropped), %d resolutions emitted\n",
			e.Ingested(), len(obs), e.LateDropped(), len(e.Resolutions()))
		printWorkerStats()
		return nil
	}
	rep, err := e.Finalize(context.Background())
	if err != nil {
		return err
	}
	if *verbose {
		drainResolutions(ch, out)
		for _, t := range rep.Targets {
			res := rep.Results[t]
			fmt.Fprintf(out, "final %-17s -> %-8s p=%.3f vote=%.2f\n",
				t, res.VID, res.Probability, res.MajorityFrac)
		}
	}
	fp := rep.Fingerprint()
	sum := sha256.Sum256([]byte(fp))
	fmt.Fprintf(out, "replayed %d/%d observations (%d late-dropped), %d resolutions emitted\n",
		e.Ingested(), len(obs), e.LateDropped(), len(e.Resolutions()))
	fmt.Fprintf(out, "finalized %d targets, matched %d, fingerprint sha256=%s\n",
		len(rep.Targets), rep.Matched(), hex.EncodeToString(sum[:]))
	if s := e.SpillStats(); s.Spilled() {
		fmt.Fprintf(out, "spill: %d bytes spilled, %d evictions, %d reloads\n",
			s.BytesSpilled, s.Evictions, s.Reloads)
	}
	printWorkerStats()
	return nil
}

// printResolution writes one early-emission match line.
func printResolution(w io.Writer, r stream.Resolution) {
	fmt.Fprintf(w, "#%d window %d: %s -> %s p=%.3f vote=%.2f\n",
		r.Seq, r.Window, r.EID, r.VID, r.Probability, r.MajorityFrac)
}

// drainResolutions prints everything currently buffered without blocking.
func drainResolutions(ch <-chan stream.Resolution, w io.Writer) {
	for {
		select {
		case r, ok := <-ch:
			if !ok {
				return
			}
			printResolution(w, r)
		default:
			return
		}
	}
}

// writeCheckpoint writes the processor state durably and atomically: the
// temp file is fsynced before the rename and the parent directory after,
// so a crash at any moment — including right after the rename — leaves
// either the previous or the new checkpoint complete on disk. (The earlier
// close-then-rename sequence lost the file entirely on a post-rename crash
// before the directory entry reached disk; spill's crash drill pins the
// difference.)
func writeCheckpoint(e stream.Processor, path string) error {
	return spill.WriteFileAtomic(spill.OS{}, path, e.Checkpoint)
}
