package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/fusion"
	"evmatching/internal/mrtest"
)

// checkLeaks arms the goroutine-leak checker and makes sure the shared HTTP
// client's keep-alive connections are torn down before the check runs.
func checkLeaks(t *testing.T) {
	t.Helper()
	mrtest.CheckGoroutines(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
}

// newTestServer matches a small world universally and serves it.
func newTestServer(t *testing.T, opts ...Option) (*httptest.Server, *dataset.Dataset, *fusion.Index) {
	t.Helper()
	checkLeaks(t)
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 60
	cfg.Density = 10
	cfg.NumWindows = 12
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
	srv, err := New(ds, idx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, ds, idx
}

// getJSON fetches a URL and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestNewValidation(t *testing.T) {
	checkLeaks(t)
	if _, err := New(nil, nil); err == nil {
		t.Error("want error for nil inputs")
	}
}

func TestMetricszEndpoint(t *testing.T) {
	var retries atomic.Int64
	retries.Store(3)
	ts, _, _ := newTestServer(t, WithMetrics(func() map[string]int64 {
		return map[string]int64{"cluster.retries": retries.Load(), "cluster.evictions": 1}
	}))

	var body map[string]int64
	if code := getJSON(t, ts.URL+"/metricsz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["cluster.retries"] != 3 || body["cluster.evictions"] != 1 {
		t.Errorf("metrics body = %v", body)
	}

	// Counters bumped after the server was built show up: the snapshot is
	// taken per request.
	retries.Add(2)
	if code := getJSON(t, ts.URL+"/metricsz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["cluster.retries"] != 5 {
		t.Errorf("retries = %d after bump, want 5", body["cluster.retries"])
	}
}

func TestMetricszAbsentWithoutOption(t *testing.T) {
	ts, _, _ := newTestServer(t)
	if code := getJSON(t, ts.URL+"/metricsz", nil); code != http.StatusNotFound {
		t.Errorf("unconfigured /metricsz status = %d, want 404", code)
	}
}

func TestHealthz(t *testing.T) {
	ts, ds, idx := newTestServer(t)
	var body struct {
		Persons   int `json:"persons"`
		Scenarios int `json:"scenarios"`
		Matched   int `json:"matched"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body.Persons != len(ds.Persons) || body.Scenarios != ds.Store.Len() || body.Matched != idx.Len() {
		t.Errorf("health = %+v", body)
	}
}

func TestMatchEndpoint(t *testing.T) {
	ts, ds, idx := newTestServer(t)
	e := ds.AllEIDs()[0]
	want, err := idx.VIDOf(e)
	if err != nil {
		t.Skip("first EID unmatched in this seed")
	}
	var body struct {
		EID        string  `json:"eid"`
		VID        string  `json:"vid"`
		Confidence float64 `json:"confidence"`
	}
	url := fmt.Sprintf("%s/match?eid=%s", ts.URL, e)
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body.VID != string(want) || body.Confidence <= 0 {
		t.Errorf("body = %+v, want VID %s", body, want)
	}

	// Reverse lookup round-trips.
	var rev struct {
		EID string `json:"eid"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/reverse?vid=%s", ts.URL, want), &rev); code != http.StatusOK {
		t.Fatalf("reverse status = %d", code)
	}
	if rev.EID != string(e) {
		t.Errorf("reverse EID = %s, want %s", rev.EID, e)
	}
}

func TestMatchErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	if code := getJSON(t, ts.URL+"/match", nil); code != http.StatusBadRequest {
		t.Errorf("missing eid status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/match?eid=no:such:mac", nil); code != http.StatusNotFound {
		t.Errorf("unknown eid status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/reverse?vid=V99999", nil); code != http.StatusNotFound {
		t.Errorf("unknown vid status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/reverse", nil); code != http.StatusBadRequest {
		t.Errorf("missing vid status = %d", code)
	}
}

func TestTrajectoryEndpoint(t *testing.T) {
	ts, ds, idx := newTestServer(t)
	e := ds.AllEIDs()[1]
	if _, err := idx.VIDOf(e); err != nil {
		t.Skip("EID unmatched in this seed")
	}
	var body struct {
		EID       string `json:"eid"`
		Sightings []struct {
			Window     int  `json:"window"`
			Electronic bool `json:"electronic"`
			Visual     bool `json:"visual"`
		} `json:"sightings"`
	}
	url := fmt.Sprintf("%s/trajectory?eid=%s", ts.URL, e)
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(body.Sightings) != ds.Config.NumWindows {
		t.Errorf("sightings = %d, want %d", len(body.Sightings), ds.Config.NumWindows)
	}
	for _, s := range body.Sightings {
		if !s.Electronic && !s.Visual {
			t.Error("sighting with no modality")
		}
	}
	if code := getJSON(t, ts.URL+"/trajectory", nil); code != http.StatusBadRequest {
		t.Error("missing eid should 400")
	}
}

func TestWhoWasAtEndpoint(t *testing.T) {
	ts, ds, _ := newTestServer(t)
	// Pick a populated cell/window.
	id := ds.Store.AtWindow(2)[0]
	cell := int(ds.Store.E(id).Cell)
	var rows []struct {
		EID string `json:"eid"`
		VID string `json:"vid"`
	}
	url := fmt.Sprintf("%s/whowasat?cell=%d&window=2", ts.URL, cell)
	if code := getJSON(t, url, &rows); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(rows) == 0 {
		t.Fatal("no presences in a populated scenario")
	}
	fused := 0
	for _, r := range rows {
		if r.EID != "" && r.VID != "" {
			fused++
		}
	}
	if fused == 0 {
		t.Error("no fused identities returned")
	}

	if code := getJSON(t, ts.URL+"/whowasat?cell=abc&window=2", nil); code != http.StatusBadRequest {
		t.Error("bad cell should 400")
	}
	if code := getJSON(t, ts.URL+"/whowasat?cell=0&window=xyz", nil); code != http.StatusBadRequest {
		t.Error("bad window should 400")
	}
	if code := getJSON(t, fmt.Sprintf("%s/whowasat?cell=%d&window=2", ts.URL, 10_000), nil); code != http.StatusNotFound {
		t.Error("out-of-range cell should 404")
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/match?eid=x", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestWriteJSONNonFiniteBody pins the regression where an unencodable body
// (a non-finite float) failed after the status header was written, leaving
// the client a truncated 200 with an empty body. The encode must happen
// first, turning the failure into a well-formed 500 error envelope.
func TestWriteJSONNonFiniteBody(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct {
		Margin float64 `json:"margin"`
	}{math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Error == "" {
		t.Errorf("error envelope empty: %s", rec.Body.String())
	}
}

// TestJSONFloatSanitizesNonFinite checks the response-field sanitizer: NaN
// and ±Inf marshal as null, finite values as plain numbers, and the zero
// value still disappears under omitempty.
func TestJSONFloatSanitizesNonFinite(t *testing.T) {
	cases := []struct {
		in   jsonFloat
		want string
	}{
		{jsonFloat(math.Inf(1)), `{"eid":"e","vid":"v","confidence":null}`},
		{jsonFloat(math.Inf(-1)), `{"eid":"e","vid":"v","confidence":null}`},
		{jsonFloat(math.NaN()), `{"eid":"e","vid":"v","confidence":null}`},
		{jsonFloat(0.75), `{"eid":"e","vid":"v","confidence":0.75}`},
		{jsonFloat(0), `{"eid":"e","vid":"v"}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(matchBody{EID: "e", VID: "v", Confidence: tc.in})
		if err != nil {
			t.Fatalf("Marshal(conf=%v): %v", float64(tc.in), err)
		}
		if string(got) != tc.want {
			t.Errorf("Marshal(conf=%v) = %s, want %s", float64(tc.in), got, tc.want)
		}
	}
}
