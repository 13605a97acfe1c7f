package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"evmatching"
	"evmatching/internal/scenario"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

func writeDataset(t *testing.T) string {
	t.Helper()
	cfg := evmatching.DefaultDatasetConfig()
	cfg.NumPersons = 40
	cfg.Density = 8
	cfg.NumWindows = 8
	ds, err := evmatching.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.gob")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveArgs boots run in the background with stdout silenced and returns the
// bound address.
func serveArgs(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})

	ready := make(chan string, 1)
	go func() {
		// http.Serve never returns cleanly; the process exit tears it down.
		_ = run(args, ready)
	}()
	select {
	case addr := <-ready:
		return addr
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
		return ""
	}
}

func TestServeEndToEnd(t *testing.T) {
	data := writeDataset(t)
	addr := serveArgs(t, []string{"-data", data, "-addr", "127.0.0.1:0"})

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Persons int `json:"persons"`
		Matched int `json:"matched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Persons != 40 || health.Matched == 0 {
		t.Errorf("health = %+v", health)
	}

	// Serial mode still serves /metricsz — no cluster counters, but the
	// batch matcher's blocking-prune gauges must be published.
	mresp, err := http.Get(fmt.Sprintf("http://%s/metricsz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metricsz status = %d", mresp.StatusCode)
	}
	var counters map[string]int64
	if err := json.NewDecoder(mresp.Body).Decode(&counters); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"block_candidates_total", "block_pruned_total", "block_prune_ratio", "block_windows_materialised"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("/metricsz missing %s: %v", name, counters)
		}
	}
	if counters["block_candidates_total"] <= 0 {
		t.Errorf("universal matching probed no scenarios: block_candidates_total = %d",
			counters["block_candidates_total"])
	}
	if counters["block_windows_materialised"] <= 0 {
		t.Errorf("the first match over a fresh store materialised no window: block_windows_materialised = %d",
			counters["block_windows_materialised"])
	}
	if r := counters["block_prune_ratio"]; r < 0 || r > 100 {
		t.Errorf("block_prune_ratio = %d, want a percent in [0,100]", r)
	}
}

func TestServeStreamMode(t *testing.T) {
	data := writeDataset(t)
	addr := serveArgs(t, []string{"-data", data, "-addr", "127.0.0.1:0", "-stream-window", "1000"})

	// The stream endpoints exist and accept an empty batch.
	resp, err := http.Post(fmt.Sprintf("http://%s/ingest", addr), "application/x-ndjson", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/ingest status = %d", resp.StatusCode)
	}
	var body struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Accepted != 0 || body.Dropped != 0 {
		t.Errorf("empty ingest body = %+v", body)
	}
}

// TestServeStreamCheckpointRestore pins the -stream-checkpoint startup
// path: a checkpoint written by a prior engine (watermark already past
// window 0) restores into the server, so an observation for window 0 is
// late-dropped — a fresh engine would have accepted it.
func TestServeStreamCheckpointRestore(t *testing.T) {
	data := writeDataset(t)
	ds, err := evmatching.LoadDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{
		Targets:    ds.AllEIDs(),
		WindowMS:   1000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
	}
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, obs, err := stream.EventsFromDataset(ds, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range obs[:len(obs)/2] {
		if _, err := eng.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if wm, ok := eng.Watermark(); !ok || wm < 1000 {
		t.Fatalf("fixture watermark %d has not passed window 0", wm)
	}
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	if err := spill.WriteFileAtomic(spill.OS{}, ckpt, eng.Checkpoint); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}

	addr := serveArgs(t, []string{
		"-data", data, "-addr", "127.0.0.1:0",
		"-stream-window", "1000", "-stream-lateness", "250",
		"-stream-checkpoint", ckpt,
	})
	line, err := json.Marshal(stream.Observation{
		TS: 0, Kind: stream.KindE, Cell: obs[0].Cell, EID: cfg.Targets[0], Attr: scenario.AttrInclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/ingest", addr), "application/x-ndjson",
		strings.NewReader(string(line)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Accepted != 0 || body.Dropped != 1 {
		t.Errorf("window-0 observation after restore = %+v, want late-dropped (fresh state would accept it)", body)
	}
}

func TestServeClusterMode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-mode end-to-end skipped in -short")
	}
	data := writeDataset(t)
	addr := serveArgs(t, []string{"-data", data, "-addr", "127.0.0.1:0", "-mode", "cluster", "-workers", "2"})

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Matched int `json:"matched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Matched == 0 {
		t.Errorf("cluster mode matched nothing: %+v", health)
	}

	mresp, err := http.Get(fmt.Sprintf("http://%s/metricsz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var counters map[string]int64
	if err := json.NewDecoder(mresp.Body).Decode(&counters); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"cluster.retries", "cluster.evictions", "cluster.stale_reports",
	} {
		if _, ok := counters[name]; !ok {
			t.Errorf("/metricsz missing %s: %v", name, counters)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil, nil); err == nil {
		t.Error("want error for missing -data")
	}
	data := writeDataset(t)
	if err := run([]string{"-data", data, "-mode", "quantum"}, nil); err == nil {
		t.Error("want error for unknown mode")
	}
	if err := run([]string{"-data", "missing.gob"}, nil); err == nil {
		t.Error("want error for missing dataset")
	}
	if err := run([]string{"-data", data, "-mode", "cluster", "-workers", "0"}, nil); err == nil {
		t.Error("want error for cluster mode with zero workers")
	}
	// A stream flag without live ingestion would do nothing: refused before
	// any matching, so the unlistenable address is never reached.
	for _, extra := range [][]string{
		{"-stream-shards", "2"},
		{"-stream-checkpoint", filepath.Join(t.TempDir(), "state.ckpt")},
	} {
		args := append([]string{"-data", data, "-addr", "no port"}, extra...)
		if err := run(args, nil); err == nil || !strings.Contains(err.Error(), "needs -stream-window") {
			t.Errorf("%s without -stream-window: err = %v, want it refused", extra[0], err)
		}
	}
}
