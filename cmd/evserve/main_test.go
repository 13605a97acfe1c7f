package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
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
	path := filepath.Join(t.TempDir(), "w.bin")
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
	// batch matcher's blocking-prune gauges, and only those.
	counters := getMetricsz(t, addr)
	if len(counters) != 3 {
		t.Errorf("/metricsz = %v, want the three block_* gauges", counters)
	}
	for _, name := range []string{"block_candidates_total", "block_pruned_total", "block_prune_ratio"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("/metricsz missing %s: %v", name, counters)
		}
	}
	if counters["block_candidates_total"] <= 0 {
		t.Errorf("universal matching probed no scenarios: block_candidates_total = %d",
			counters["block_candidates_total"])
	}
	if r := counters["block_prune_ratio"]; r < 0 || r > 100 {
		t.Errorf("block_prune_ratio = %d, want a percent in [0,100]", r)
	}
}

// getMetricsz reads the server's /metricsz counters.
func getMetricsz(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metricsz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metricsz status = %d", resp.StatusCode)
	}
	var counters map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&counters); err != nil {
		t.Fatal(err)
	}
	return counters
}

func TestServeStreamMode(t *testing.T) {
	data := writeDataset(t)
	addr := serveArgs(t, []string{"-data", data, "-addr", "127.0.0.1:0", "-stream-window", "1000"})

	// Before any ingest, /metricsz already serves the engine's eleven gauges,
	// laid over the start-up match's three: the engine's block_* values win,
	// and it has split nothing yet.
	counters := getMetricsz(t, addr)
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	slices.Sort(names)
	want := []string{
		"block_candidates_total", "block_prune_ratio", "block_pruned_total",
		"stream_duplicate_detections", "stream_late_dropped", "stream_open_detections", "stream_open_windows",
		"stream_pending_eids", "stream_resolutions_dropped", "stream_resolutions_emitted", "stream_watermark_lag_ms",
	}
	if !slices.Equal(names, want) {
		t.Errorf("/metricsz names at start-up = %v, want %v", names, want)
	}
	if counters["block_candidates_total"] != 0 {
		t.Errorf("block_candidates_total = %d, want the engine's 0", counters["block_candidates_total"])
	}

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

// TestServeDebugPprof pins that the runtime profiles are served beside the
// fusion and stream endpoints without displacing them: the pprof index
// answers 200, and /match and /ingest still route to the server.
func TestServeDebugPprof(t *testing.T) {
	data := writeDataset(t)
	ds, err := evmatching.LoadDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveArgs(t, []string{"-data", data, "-addr", "127.0.0.1:0", "-stream-window", "1000"})
	base := "http://" + addr
	for _, c := range []struct {
		method, path, want string
	}{
		{http.MethodGet, "/debug/pprof/", "goroutine"},
		{http.MethodGet, "/debug/pprof/goroutine?debug=1", "goroutine profile"},
		{http.MethodGet, "/match?eid=" + string(ds.AllEIDs()[0]), `"eid"`},
		{http.MethodPost, "/ingest", `"accepted":0`},
	} {
		req, err := http.NewRequest(c.method, base+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), c.want) {
			t.Errorf("%s %s: status %d body %.200s, want 200 containing %q", c.method, c.path, resp.StatusCode, raw, c.want)
		}
	}
}

// TestServeStreamCheckpointRestore pins the -stream-checkpoint startup
// path: a checkpoint written by a prior processor (watermark already past
// window 0) restores into the server, so an observation for window 0 is
// late-dropped — a fresh engine would have accepted it. Both images restore:
// an Engine's, and a 2-shard Router's, which is what a server started with
// -stream-shards 2 by an older build leaves on disk.
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
	_, obs, err := stream.EventsFromDataset(ds, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) stream.Processor
	}{
		{"engine", func(t *testing.T) stream.Processor {
			eng, err := stream.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}},
		{"router-2-shards", func(t *testing.T) stream.Processor {
			r, err := stream.NewRouter(stream.RouterConfig{Config: cfg, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proc := tc.open(t)
			for i, o := range obs[:len(obs)/2] {
				if _, err := proc.Ingest(o); err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
			}
			if wm, ok := proc.Watermark(); !ok || wm < 1000 {
				t.Fatalf("fixture watermark %d has not passed window 0", wm)
			}
			ckpt := filepath.Join(t.TempDir(), "state.ckpt")
			if err := spill.WriteFileAtomic(spill.OS{}, ckpt, proc.Checkpoint); err != nil {
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
		})
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil, nil); err == nil {
		t.Error("want error for missing -data")
	}
	if err := run([]string{"-data", "missing.bin"}, nil); err == nil {
		t.Error("want error for missing dataset")
	}
	data := writeDataset(t)
	// The engine selectors and the memory budget are gone: each is an
	// unknown flag, refused before any matching.
	for _, gone := range []string{"-mode", "-workers", "-stream-shards", "-stream-shard-workers", "-shardd", "-mem-budget", "-spill-dir"} {
		if err := run([]string{"-data", data, gone, "1"}, nil); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", gone, err)
		}
	}
	// A checkpoint without live ingestion would do nothing: refused before
	// any matching, so the unlistenable address is never reached.
	args := []string{"-data", data, "-addr", "no port", "-stream-checkpoint", filepath.Join(t.TempDir(), "state.ckpt")}
	if err := run(args, nil); err == nil || !strings.Contains(err.Error(), "needs -stream-window") {
		t.Errorf("-stream-checkpoint without -stream-window: err = %v, want it refused", err)
	}
}
