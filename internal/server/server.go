// Package server exposes a matched EV dataset as a JSON HTTP API — the
// query side of the paper's vision: after (universal) matching, a single
// request fuses both data sources. Endpoints:
//
//	GET /healthz                       liveness and index size
//	GET /match?eid=<eid>               the EID's matched VID and confidence
//	GET /reverse?vid=<vid>             the VID's matched EID
//	GET /trajectory?eid=<eid>          the fused E+V trajectory
//	GET /whowasat?cell=<id>&window=<w> everyone observed there, both identities
//	GET /metricsz                      operational counters (with WithMetrics)
//	POST /ingest                       JSONL observations (with WithStream)
//	GET /stream                        resolutions as SSE (with WithStream)
//
// The query handlers are read-only over an immutable dataset and index; the
// optional stream endpoints delegate to a stream.Processor (evserve attaches
// an Engine), which synchronizes internally. Every handler is safe for
// concurrent use.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"evmatching/internal/dataset"
	"evmatching/internal/fusion"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/stream"
)

// Server serves fusion queries over one dataset.
type Server struct {
	ds      *dataset.Dataset
	idx     *fusion.Index
	mux     *http.ServeMux
	metrics func() map[string]int64
	stream  stream.Processor
}

// Option customizes a Server.
type Option func(*Server)

// WithMetrics exposes the snapshot function's counters at GET /metricsz,
// calling it once per request — in evserve, the start-up match's block_*
// gauges and, with live ingestion, the stream Engine's Gauges.
func WithMetrics(snapshot func() map[string]int64) Option {
	return func(s *Server) { s.metrics = snapshot }
}

// New creates a server over a dataset and its matching index.
func New(ds *dataset.Dataset, idx *fusion.Index, opts ...Option) (*Server, error) {
	if ds == nil || idx == nil {
		return nil, errors.New("server: nil dataset or index")
	}
	s := &Server{ds: ds, idx: idx, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /match", s.handleMatch)
	s.mux.HandleFunc("GET /reverse", s.handleReverse)
	s.mux.HandleFunc("GET /trajectory", s.handleTrajectory)
	s.mux.HandleFunc("GET /whowasat", s.handleWhoWasAt)
	if s.metrics != nil {
		s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	}
	if s.stream != nil {
		s.mux.HandleFunc("POST /ingest", s.handleIngest)
		s.mux.HandleFunc("GET /stream", s.handleStream)
	}
	return s, nil
}

// handleMetrics serves the operational counters; encoding/json renders map
// keys in sorted order, so the body is deterministic for a given snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var _ http.Handler = (*Server)(nil)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// jsonFloat is a float64 that survives JSON encoding whatever its value:
// NaN and ±Inf marshal as null instead of aborting the encoder. Response
// bodies use it for any field fed from match statistics, where ratios like a
// lone candidate's margin are legitimately infinite.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	// Encode before touching the ResponseWriter: once the status header is
	// out, an encoding failure (e.g. a non-finite float that slipped past
	// sanitization) would silently truncate the body mid-response. Buffering
	// first lets such failures surface as a well-formed 500 instead.
	data, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(errorBody{Error: fmt.Sprintf("encode response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data = append(data, '\n')
	_, _ = w.Write(data)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// healthBody reports liveness.
type healthBody struct {
	Persons   int `json:"persons"`
	Scenarios int `json:"scenarios"`
	Matched   int `json:"matched"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{
		Persons:   len(s.ds.Persons),
		Scenarios: s.ds.Store.Len(),
		Matched:   s.idx.Len(),
	})
}

// matchBody is the /match and /reverse response.
type matchBody struct {
	EID        ids.EID   `json:"eid"`
	VID        ids.VID   `json:"vid"`
	Confidence jsonFloat `json:"confidence,omitempty"`
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	e := ids.EID(r.URL.Query().Get("eid"))
	if e == ids.None {
		writeError(w, http.StatusBadRequest, "missing eid parameter")
		return
	}
	v, err := s.idx.VIDOf(e)
	if err != nil {
		writeError(w, http.StatusNotFound, "EID %s is not matched", e)
		return
	}
	conf, err := s.idx.Confidence(e)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "confidence lookup: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, matchBody{EID: e, VID: v, Confidence: jsonFloat(conf)})
}

func (s *Server) handleReverse(w http.ResponseWriter, r *http.Request) {
	v := ids.VID(r.URL.Query().Get("vid"))
	if v == ids.NoVID {
		writeError(w, http.StatusBadRequest, "missing vid parameter")
		return
	}
	e, err := s.idx.EIDOf(v)
	if err != nil {
		writeError(w, http.StatusNotFound, "VID %s is not matched", v)
		return
	}
	writeJSON(w, http.StatusOK, matchBody{EID: e, VID: v})
}

// trajectoryBody is the /trajectory response.
type trajectoryBody struct {
	EID       ids.EID        `json:"eid"`
	VID       ids.VID        `json:"vid"`
	Sightings []sightingBody `json:"sightings"`
}

type sightingBody struct {
	Window     int     `json:"window"`
	Cell       int     `json:"cell"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Electronic bool    `json:"electronic"`
	Visual     bool    `json:"visual"`
}

func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	e := ids.EID(r.URL.Query().Get("eid"))
	if e == ids.None {
		writeError(w, http.StatusBadRequest, "missing eid parameter")
		return
	}
	v, err := s.idx.VIDOf(e)
	if err != nil {
		writeError(w, http.StatusNotFound, "EID %s is not matched", e)
		return
	}
	sightings, err := s.idx.FusedTrajectory(e)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "trajectory: %v", err)
		return
	}
	body := trajectoryBody{EID: e, VID: v, Sightings: make([]sightingBody, 0, len(sightings))}
	for _, sg := range sightings {
		body.Sightings = append(body.Sightings, sightingBody{
			Window:     sg.Window,
			Cell:       int(sg.Cell),
			X:          sg.Pos.X,
			Y:          sg.Pos.Y,
			Electronic: sg.Electronic,
			Visual:     sg.Visual,
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// presenceBody is one /whowasat row.
type presenceBody struct {
	EID ids.EID `json:"eid,omitempty"`
	VID ids.VID `json:"vid,omitempty"`
}

func (s *Server) handleWhoWasAt(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cell, err := strconv.Atoi(q.Get("cell"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad cell parameter: %v", err)
		return
	}
	window, err := strconv.Atoi(q.Get("window"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad window parameter: %v", err)
		return
	}
	if cell < 0 || cell >= s.ds.Layout.NumCells() {
		writeError(w, http.StatusNotFound, "cell %d out of range", cell)
		return
	}
	present, err := s.idx.WhoWasAt(geo.CellID(cell), window)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "query: %v", err)
		return
	}
	out := make([]presenceBody, 0, len(present))
	for _, p := range present {
		out = append(out, presenceBody{EID: p.EID, VID: p.VID})
	}
	writeJSON(w, http.StatusOK, out)
}
