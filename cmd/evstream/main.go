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
//	         [-speed 0]
//	         [-checkpoint state.ckpt] [-checkpoint-every 2000]
//	         [-max-events 0] [-finalize] [-v]
//
// When -checkpoint names an existing file the replay resumes from it,
// skipping the observations the checkpointed engine already ingested — the
// crash-recovery path the stream chaos tests exercise. An engine and a
// sharded Router write the same image for the same state, so the file may
// come from either.
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
		ckptPath   = fs.String("checkpoint", "", "checkpoint file: resumed from when present, rewritten during replay")
		ckptEvery  = fs.Int64("checkpoint-every", 2000, "observations between checkpoint writes")
		maxEvents  = fs.Int64("max-events", 0, "stop after this log position (0 = whole log)")
		finalize   = fs.Bool("finalize", true, "flush and run the batch-equivalent final match")
		verbose    = fs.Bool("v", false, "print every resolution as it is emitted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return errors.New("-log is required")
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
	}

	// Resume from the checkpoint when one exists; otherwise start fresh.
	var e *stream.Engine
	if *ckptPath != "" {
		cf, err := os.Open(*ckptPath)
		switch {
		case err == nil:
			e, err = stream.Restore(cfg, cf)
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
		if e, err = stream.NewEngine(cfg); err != nil {
			return err
		}
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

	if !*finalize {
		fmt.Fprintf(out, "replayed %d/%d observations (%d late-dropped), %d resolutions emitted\n",
			e.Ingested(), len(obs), e.LateDropped(), len(e.Resolutions()))
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

// writeCheckpoint writes the engine state durably and atomically: the
// temp file is fsynced before the rename and the parent directory after,
// so a crash at any moment — including right after the rename — leaves
// either the previous or the new checkpoint complete on disk. (The earlier
// close-then-rename sequence lost the file entirely on a post-rename crash
// before the directory entry reached disk; spill's crash drill pins the
// difference.)
func writeCheckpoint(e *stream.Engine, path string) error {
	return spill.WriteFileAtomic(spill.OS{}, path, e.Checkpoint)
}
