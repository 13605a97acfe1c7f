package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/stream"
)

// writeTestLog generates a small practical world and flattens it into an
// observation log on disk, returning the dataset for batch comparison.
func writeTestLog(t *testing.T, dir string) (*dataset.Dataset, string) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 50
	cfg.Density = 8
	cfg.NumWindows = 10
	cfg = cfg.Practical()
	cfg.EIDMissingRate = 0.1
	cfg.VIDMissingRate = 0.05
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	path := filepath.Join(dir, "obs.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create log: %v", err)
	}
	if _, err := stream.WriteEventsLog(f, ds, 1_000, 7); err != nil {
		t.Fatalf("WriteEventsLog: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
	return ds, path
}

// batchHash runs the batch SS reference with the options the CLI defaults to
// and returns the sha256 the CLI should print.
func batchHash(t *testing.T, ds *dataset.Dataset, targets []ids.EID, seed int64) string {
	t.Helper()
	m, err := core.New(ds, core.Options{
		Algorithm: core.AlgorithmSS,
		Mode:      core.ModeSerial,
		Seed:      seed,
		ScanOrder: core.ScanInOrder,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatalf("batch Match: %v", err)
	}
	sum := sha256.Sum256([]byte(rep.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

var hashRE = regexp.MustCompile(`sha256=([0-9a-f]{64})`)

func extractHash(t *testing.T, output string) string {
	t.Helper()
	m := hashRE.FindStringSubmatch(output)
	if m == nil {
		t.Fatalf("no fingerprint hash in output:\n%s", output)
	}
	return m[1]
}

func targetsFlag(ds *dataset.Dataset, n int) (string, []ids.EID) {
	targets := ds.AllEIDs()[:n]
	parts := make([]string, len(targets))
	for i, e := range targets {
		parts[i] = string(e)
	}
	return strings.Join(parts, ","), targets
}

// TestRunReplayMatchesBatch is the CLI-level golden invariant: a full replay
// through evstream prints the same fingerprint hash as the batch SS run over
// the original dataset.
func TestRunReplayMatchesBatch(t *testing.T) {
	dir := t.TempDir()
	ds, logPath := writeTestLog(t, dir)
	flag, targets := targetsFlag(ds, 12)
	var buf bytes.Buffer
	err := run([]string{"-log", logPath, "-targets", flag, "-seed", "7", "-v"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if got, want := extractHash(t, buf.String()), batchHash(t, ds, targets, 7); got != want {
		t.Errorf("replay hash %s, want batch hash %s\n%s", got, want, buf.String())
	}
	if !strings.Contains(buf.String(), "#1 window") {
		t.Errorf("-v printed no live resolutions:\n%s", buf.String())
	}
}

// TestRunCrashResume is the CLI-level crash drill: a first run stops
// mid-log leaving a checkpoint, a second run resumes from it, and the final
// fingerprint matches an uninterrupted replay and the batch reference.
func TestRunCrashResume(t *testing.T) {
	dir := t.TempDir()
	ds, logPath := writeTestLog(t, dir)
	flag, targets := targetsFlag(ds, 12)
	ckpt := filepath.Join(dir, "state.ckpt")

	var first bytes.Buffer
	err := run([]string{
		"-log", logPath, "-targets", flag, "-seed", "7",
		"-checkpoint", ckpt, "-checkpoint-every", "500",
		"-max-events", "1500", "-finalize=false",
	}, &first)
	if err != nil {
		t.Fatalf("first run: %v\n%s", err, first.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("first run left no checkpoint: %v", err)
	}

	var second bytes.Buffer
	err = run([]string{
		"-log", logPath, "-targets", flag, "-seed", "7",
		"-checkpoint", ckpt, "-checkpoint-every", "500",
	}, &second)
	if err != nil {
		t.Fatalf("second run: %v\n%s", err, second.String())
	}
	if !strings.Contains(second.String(), "resumed from") {
		t.Fatalf("second run did not resume:\n%s", second.String())
	}
	if got, want := extractHash(t, second.String()), batchHash(t, ds, targets, 7); got != want {
		t.Errorf("resumed replay hash %s, want batch hash %s", got, want)
	}
}

// TestRunShardedReplayMatchesBatch extends the CLI golden invariant to the
// sharded router: -shards N replays print the same fingerprint hash as the
// batch SS run, at the degenerate 1-shard case and a genuinely partitioned 4.
func TestRunShardedReplayMatchesBatch(t *testing.T) {
	dir := t.TempDir()
	ds, logPath := writeTestLog(t, dir)
	flag, targets := targetsFlag(ds, 12)
	want := batchHash(t, ds, targets, 7)
	for _, shards := range []string{"1", "4"} {
		var buf bytes.Buffer
		err := run([]string{"-log", logPath, "-targets", flag, "-seed", "7", "-shards", shards}, &buf)
		if err != nil {
			t.Fatalf("run -shards %s: %v\n%s", shards, err, buf.String())
		}
		if got := extractHash(t, buf.String()); got != want {
			t.Errorf("-shards %s replay hash %s, want batch hash %s", shards, got, want)
		}
	}
}

// TestRunShardedCrashResume is the sharded crash drill, covering both
// checkpoint transitions: a 3-shard run leaves a router image that a 2-shard
// run resumes (resharding restore), and an unsharded run leaves an engine
// image that a 2-shard run upgrades — both finishing at the batch hash.
func TestRunShardedCrashResume(t *testing.T) {
	dir := t.TempDir()
	ds, logPath := writeTestLog(t, dir)
	flag, targets := targetsFlag(ds, 12)
	want := batchHash(t, ds, targets, 7)
	for _, tc := range []struct{ name, firstShards string }{
		{"reshard-3-to-2", "3"},
		{"engine-image-upgrade", "0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(dir, tc.name+".ckpt")
			var first bytes.Buffer
			err := run([]string{
				"-log", logPath, "-targets", flag, "-seed", "7", "-shards", tc.firstShards,
				"-checkpoint", ckpt, "-checkpoint-every", "500",
				"-max-events", "1500", "-finalize=false",
			}, &first)
			if err != nil {
				t.Fatalf("first run: %v\n%s", err, first.String())
			}
			var second bytes.Buffer
			err = run([]string{
				"-log", logPath, "-targets", flag, "-seed", "7", "-shards", "2",
				"-checkpoint", ckpt, "-checkpoint-every", "500",
			}, &second)
			if err != nil {
				t.Fatalf("second run: %v\n%s", err, second.String())
			}
			if !strings.Contains(second.String(), "resumed from") {
				t.Fatalf("second run did not resume:\n%s", second.String())
			}
			if got := extractHash(t, second.String()); got != want {
				t.Errorf("resumed sharded replay hash %s, want batch hash %s", got, want)
			}
		})
	}
}

// TestRunDefaultTargets covers the pre-scan path: with no -targets the CLI
// matches every EID sighted in the log.
// TestRunSpillBudgetMatchesBatch is the CLI face of the out-of-core
// invariant: a replay squeezed under a tiny -mem-budget evicts sealed
// windows to disk (the spill summary line proves it) yet prints the same
// fingerprint hash as the batch reference — and as the unbudgeted replay.
func TestRunSpillBudgetMatchesBatch(t *testing.T) {
	dir := t.TempDir()
	ds, logPath := writeTestLog(t, dir)
	flag, targets := targetsFlag(ds, 12)
	var buf bytes.Buffer
	err := run([]string{
		"-log", logPath, "-targets", flag, "-seed", "7",
		"-mem-budget", "4096", "-spill-dir", dir,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if got, want := extractHash(t, buf.String()), batchHash(t, ds, targets, 7); got != want {
		t.Errorf("budgeted replay hash %s, want batch hash %s\n%s", got, want, buf.String())
	}
	if !strings.Contains(buf.String(), "spill:") {
		t.Errorf("budget forced no spill activity:\n%s", buf.String())
	}
}

// TestRunSpillCrashResume combines both durability layers: checkpoints
// written over evicted state, a resume from one, all under a budget — the
// resumed, budgeted replay still lands on the batch hash.
func TestRunSpillCrashResume(t *testing.T) {
	dir := t.TempDir()
	ds, logPath := writeTestLog(t, dir)
	flag, targets := targetsFlag(ds, 12)
	ckpt := filepath.Join(dir, "state.ckpt")

	var first bytes.Buffer
	err := run([]string{
		"-log", logPath, "-targets", flag, "-seed", "7",
		"-mem-budget", "4096", "-spill-dir", dir,
		"-checkpoint", ckpt, "-checkpoint-every", "500",
		"-max-events", "1500", "-finalize=false",
	}, &first)
	if err != nil {
		t.Fatalf("first run: %v\n%s", err, first.String())
	}
	var second bytes.Buffer
	err = run([]string{
		"-log", logPath, "-targets", flag, "-seed", "7",
		"-mem-budget", "4096", "-spill-dir", dir,
		"-checkpoint", ckpt, "-checkpoint-every", "500",
	}, &second)
	if err != nil {
		t.Fatalf("second run: %v\n%s", err, second.String())
	}
	if !strings.Contains(second.String(), "resumed from") {
		t.Fatalf("second run did not resume:\n%s", second.String())
	}
	if got, want := extractHash(t, second.String()), batchHash(t, ds, targets, 7); got != want {
		t.Errorf("resumed budgeted replay hash %s, want batch hash %s", got, want)
	}
}

func TestRunDefaultTargets(t *testing.T) {
	dir := t.TempDir()
	ds, logPath := writeTestLog(t, dir)
	var buf bytes.Buffer
	if err := run([]string{"-log", logPath, "-seed", "7"}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if got, want := extractHash(t, buf.String()), batchHash(t, ds, ds.AllEIDs(), 7); got != want {
		t.Errorf("default-target replay hash %s, want batch hash %s", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	dir := t.TempDir()
	if err := run(nil, new(bytes.Buffer)); err == nil {
		t.Error("want error for missing -log")
	}
	if err := run([]string{"-bogus"}, new(bytes.Buffer)); err == nil {
		t.Error("want flag parse error")
	}
	garbage := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(garbage, []byte("not a log\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-log", garbage}, new(bytes.Buffer)); err == nil {
		t.Error("want error for malformed log")
	}
}
