package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/fusion"
	"evmatching/internal/stream"
)

// newStreamServer serves a matched world with a live stream processor
// attached — the unsharded engine, or the sharded router when shards > 0 —
// returning the processor and the world's flattened observation log.
func newStreamServer(t *testing.T, shards int) (*httptest.Server, stream.Processor, []stream.Observation) {
	t.Helper()
	checkLeaks(t)
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 40
	cfg.Density = 8
	cfg.NumWindows = 8
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.MatchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fusion.BuildIndex(ds, rep)
	if err != nil {
		t.Fatal(err)
	}
	_, obs, err := stream.EventsFromDataset(ds, 1_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	scfg := stream.Config{
		Targets:    ds.AllEIDs()[:6],
		WindowMS:   1_000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
	}
	var proc stream.Processor
	if shards > 0 {
		router, err := stream.NewRouter(stream.RouterConfig{Config: scfg, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := router.Close(); err != nil {
				t.Errorf("router Close: %v", err)
			}
		})
		proc = router
	} else {
		eng, err := stream.NewEngine(scfg)
		if err != nil {
			t.Fatal(err)
		}
		proc = eng
	}
	srv, err := New(ds, idx, WithStream(proc))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, proc, obs
}

// postJSONL posts observations as a JSONL body to /ingest.
func postJSONL(t *testing.T, url string, obs []stream.Observation) (*http.Response, ingestBody) {
	t.Helper()
	var b strings.Builder
	for _, o := range obs {
		line, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("marshal observation: %v", err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var body ingestBody
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode ingest response: %v", err)
		}
	}
	return resp, body
}

// TestIngestAndStream is the live-path end-to-end test: observations posted
// over HTTP fold into the processor, and /stream replays every emitted
// resolution as SSE frames. It runs once over the unsharded engine and once
// over a 3-shard router — WithStream serves both through the same handlers.
func TestIngestAndStream(t *testing.T) {
	t.Run("engine", func(t *testing.T) { testIngestAndStream(t, 0) })
	t.Run("sharded", func(t *testing.T) { testIngestAndStream(t, 3) })
}

func testIngestAndStream(t *testing.T, shards int) {
	ts, eng, obs := newStreamServer(t, shards)

	resp, body := postJSONL(t, ts.URL, obs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	if body.Accepted != len(obs) || body.Dropped != 0 {
		t.Fatalf("ingest body = %+v, want %d accepted", body, len(obs))
	}
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := eng.Resolutions()
	if len(want) == 0 {
		t.Fatal("no resolutions after a full replay")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /stream: %v", err)
	}
	defer sresp.Body.Close()
	if got := sresp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Errorf("Content-Type = %q", got)
	}
	var got []resolutionBody
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() && len(got) < len(want) {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var r resolutionBody
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &r); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		got = append(got, r)
	}
	cancel()
	if len(got) != len(want) {
		t.Fatalf("streamed %d resolutions, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Seq != want[i].Seq || r.EID != want[i].EID || r.VID != want[i].VID {
			t.Errorf("frame %d = %+v, want seq=%d eid=%s vid=%s", i, r, want[i].Seq, want[i].EID, want[i].VID)
		}
	}
}

// brokenPipeWriter is an http.ResponseWriter+Flusher whose Write starts
// failing after okWrites successes — a client that disconnected mid-stream.
type brokenPipeWriter struct {
	hdr      http.Header
	writes   int
	okWrites int
}

func (w *brokenPipeWriter) Header() http.Header { return w.hdr }
func (w *brokenPipeWriter) WriteHeader(int)     {}
func (w *brokenPipeWriter) Flush()              {}
func (w *brokenPipeWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.okWrites {
		return 0, errors.New("broken pipe")
	}
	return len(p), nil
}

// TestStreamStopsOnClientWriteError pins that a write failure ends the SSE
// handler immediately: one successful frame, one failed attempt, return —
// not a blind march through the whole backlog (or worse, a handler parked
// forever on the live channel of a dead connection).
func TestStreamStopsOnClientWriteError(t *testing.T) {
	checkLeaks(t)
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 40
	cfg.Density = 8
	cfg.NumWindows = 8
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.MatchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fusion.BuildIndex(ds, rep)
	if err != nil {
		t.Fatal(err)
	}
	_, obs, err := stream.EventsFromDataset(ds, 1_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(stream.Config{
		Targets:    ds.AllEIDs()[:6],
		WindowMS:   1_000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		if _, err := eng.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(eng.Resolutions()) < 2 {
		t.Fatalf("fixture emitted %d resolutions, need >= 2 for the backlog", len(eng.Resolutions()))
	}
	srv, err := New(ds, idx, WithStream(eng))
	if err != nil {
		t.Fatal(err)
	}

	w := &brokenPipeWriter{hdr: make(http.Header), okWrites: 1}
	req := httptest.NewRequest(http.MethodGet, "/stream", nil)
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running after the client write failed")
	}
	if w.writes != 2 {
		t.Errorf("handler made %d writes, want 2 (one frame delivered, one failed attempt, then stop)", w.writes)
	}
}

// TestIngestCountsLateDrops pins that re-delivered stale observations are
// reported as dropped, not accepted.
func TestIngestCountsLateDrops(t *testing.T) {
	ts, _, obs := newStreamServer(t, 0)
	if resp, _ := postJSONL(t, ts.URL, obs); resp.StatusCode != http.StatusOK {
		t.Fatalf("full ingest status = %d", resp.StatusCode)
	}
	resp, body := postJSONL(t, ts.URL, obs[:1])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-delivery status = %d", resp.StatusCode)
	}
	if body.Accepted != 0 || body.Dropped != 1 {
		t.Errorf("re-delivery body = %+v, want 1 dropped", body)
	}
}

// TestIngestSkipsHeaderLine pins that a whole evgen -events file — header
// line included — can be posted as-is: the header is skipped, not counted.
func TestIngestSkipsHeaderLine(t *testing.T) {
	ts, _, obs := newStreamServer(t, 0)
	var b strings.Builder
	b.WriteString(`{"kind":"header","version":1,"windowMs":1000,"dim":64}` + "\n")
	line, err := json.Marshal(obs[0])
	if err != nil {
		t.Fatal(err)
	}
	b.Write(line)
	b.WriteByte('\n')
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with header status = %d, want 200", resp.StatusCode)
	}
	var body ingestBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Accepted != 1 || body.Dropped != 0 {
		t.Errorf("body = %+v, want exactly the one observation accepted", body)
	}
}

// TestIngestHeaderAnywhereMalformedByLine pins handleIngest's one-decode
// path to the behaviour of the probe-first one it replaced: a header line is
// skipped wherever it stands — first or mid-body, even one that also carries
// observation fields — and a malformed line fails the request with its own
// line number and the observation decoder's error, everything before it
// ingested.
func TestIngestHeaderAnywhereMalformedByLine(t *testing.T) {
	ts, proc, obs := newStreamServer(t, 0)
	const header = `{"kind":"header","version":1,"windowMs":1000,"dim":64}`
	lines := []string{header}
	for _, o := range obs[:3] {
		line, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	lines = append(lines[:3], append([]string{header, "", `{"kind":"header","ts":"not a number"}`}, lines[3:]...)...)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	if code, body := post(strings.Join(lines, "\n") + "\n"); code != http.StatusOK || !strings.Contains(body, `"accepted":3`) {
		t.Fatalf("headers first and mid-body: status %d body %s, want 200 with 3 accepted", code, body)
	}
	for _, c := range []struct{ name, line, want string }{
		{"not-json", `not json`, "line 3: invalid character"},
		{"unknown-kind", `{"ts":1,"kind":"X","cell":0}`, `line 3: stream: bad observation: kind \"X\"`},
		{"numeric-header", `{"kind":7}`, "line 3: json: cannot unmarshal number"},
		{"header-with-trailing-garbage", header + " x", "line 3: invalid character"},
	} {
		before := proc.Ingested()
		code, body := post(lines[1] + "\n" + lines[2] + "\n" + c.line + "\n" + lines[6] + "\n")
		if code != http.StatusBadRequest || !strings.Contains(body, c.want) {
			t.Errorf("%s: status %d body %s, want 400 containing %q", c.name, code, body, c.want)
		}
		if got := proc.Ingested() - before; got != 2 {
			t.Errorf("%s: %d observations ingested before the bad line, want 2", c.name, got)
		}
	}
}

// TestIngestRejectsMalformed covers the 400 paths: non-JSON lines and
// well-formed JSON that fails observation validation.
func TestIngestRejectsMalformed(t *testing.T) {
	ts, _, _ := newStreamServer(t, 0)
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader("not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage line status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"ts":-5,"kind":"E","cell":0,"eid":"aa","attr":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid observation status = %d, want 400", resp.StatusCode)
	}
}

// TestIngestRefusesHostilePatch pins that a posted V line whose patch is no
// W×H block — negative dimensions whose product equals its pixel count — is
// refused with 400 on its own line, and that the engine behind the server
// still resolves the windows after it.
func TestIngestRefusesHostilePatch(t *testing.T) {
	ts, proc, obs := newStreamServer(t, 0)
	at := sort.Search(len(obs), func(i int) bool { return obs[i].TS >= 1_000 }) / 2 // mid window 0
	if resp, _ := postJSONL(t, ts.URL, obs[:at]); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest before the hostile line: status %d", resp.StatusCode)
	}
	bad := stream.Observation{TS: obs[at].TS, Kind: stream.KindV, Cell: obs[at].Cell, VID: "V-hostile",
		Patch: &feature.Patch{W: -16, H: -40, Pix: make([]byte, 640)}}
	var b strings.Builder
	for _, o := range []stream.Observation{obs[at], bad} {
		line, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "line 2: " + stream.ErrBadObservation.Error(); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), want) {
		t.Fatalf("hostile patch: status %d body %s, want 400 containing %q", resp.StatusCode, raw, want)
	}
	if resp, _ := postJSONL(t, ts.URL, obs[at+1:]); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after the hostile line: status %d", resp.StatusCode)
	}
	if err := proc.Flush(); err != nil {
		t.Fatalf("Flush after the hostile line: %v", err)
	}
	later := 0
	for _, r := range proc.Resolutions() {
		if int64(r.Window) > bad.TS/1_000 {
			later++
		}
	}
	if later == 0 {
		t.Fatalf("no resolution after window %d, where the hostile line was refused", bad.TS/1_000)
	}
}

// TestStreamEndpointsAbsentWithoutOption pins that servers built without
// WithStream expose neither endpoint.
func TestStreamEndpointsAbsentWithoutOption(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/ingest without stream status = %d, want 404", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/stream", nil); code != http.StatusNotFound {
		t.Errorf("/stream without stream status = %d, want 404", code)
	}
}

// TestSSEFramesMarkGaps drives the frame writer over a Seq sequence with two
// holes — what a subscriber whose channel dropped resolutions sees — and pins
// the bytes: every frame carries its Seq as the event id, each hole is one
// comment line naming the missing Seqs, and the data lines are exactly the
// JSON bodies.
func TestSSEFramesMarkGaps(t *testing.T) {
	var buf strings.Builder
	sse := &sseWriter{w: &buf}
	var want strings.Builder
	for _, seq := range []int{1, 2, 5, 6, 9} {
		r := stream.Resolution{Seq: seq, EID: "e", VID: "v", Margin: 2}
		if err := sse.write(r); err != nil {
			t.Fatal(err)
		}
		switch seq {
		case 5:
			want.WriteString(": gap 3-4\n")
		case 9:
			want.WriteString(": gap 7-8\n")
		}
		data, err := json.Marshal(toResolutionBody(r))
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString("id: " + strconv.Itoa(seq) + "\nevent: resolution\ndata: " + string(data) + "\n\n")
	}
	if buf.String() != want.String() {
		t.Errorf("frames:\n%s\nwant:\n%s", buf.String(), want.String())
	}
}
