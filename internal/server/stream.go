package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"evmatching/internal/ids"
	"evmatching/internal/stream"
)

// WithStream attaches a live stream processor — the unsharded Engine or the
// sharded Router — enabling ingestion and resolution streaming:
//
//	POST /ingest   JSONL observation lines folded into the processor
//	GET  /stream   server-sent events: past and future resolutions
//
// Processors are safe for concurrent use, so both endpoints can run alongside
// the read-only fusion queries.
func WithStream(p stream.Processor) Option {
	return func(s *Server) { s.stream = p }
}

// ingestBody is the POST /ingest response.
type ingestBody struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
}

// handleIngest folds a JSONL body of observations into the stream engine.
// Any malformed or invalid line fails the whole request with its line
// number; everything ingested before it stays ingested (the engine is
// idempotent under re-delivery, so callers may simply retry the batch).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxIngestLine)
	var body ingestBody
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var o stream.Observation
		if err := json.Unmarshal(text, &o); err != nil {
			// Accept whole evgen -events files as-is: their header line carries
			// log metadata, not an observation. "header" is no observation
			// kind, so a header always lands here and only a line that already
			// failed pays for the second look.
			var probe struct {
				Kind string `json:"kind"`
			}
			if json.Unmarshal(text, &probe) == nil && probe.Kind == "header" {
				continue
			}
			writeError(w, http.StatusBadRequest, "line %d: %v", line, err)
			return
		}
		accepted, err := s.stream.Ingest(o)
		if err != nil {
			writeError(w, http.StatusBadRequest, "line %d: %v", line, err)
			return
		}
		if accepted {
			body.Accepted++
		} else {
			body.Dropped++
		}
	}
	if err := sc.Err(); err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// maxIngestLine bounds one observation line; patches are base64-encoded
// pixel blocks, far below this.
const maxIngestLine = 4 << 20

// resolutionBody mirrors stream.Resolution with sanitized floats: a lone
// candidate's margin is +Inf, which encoding/json cannot represent.
type resolutionBody struct {
	Seq          int       `json:"seq"`
	EID          ids.EID   `json:"eid"`
	VID          ids.VID   `json:"vid"`
	Probability  jsonFloat `json:"probability"`
	MajorityFrac jsonFloat `json:"majorityFrac"`
	RunnerUp     ids.VID   `json:"runnerUp,omitempty"`
	Margin       jsonFloat `json:"margin"`
	Acceptable   bool      `json:"acceptable"`
	Window       int       `json:"window"`
}

func toResolutionBody(r stream.Resolution) resolutionBody {
	return resolutionBody{
		Seq:          r.Seq,
		EID:          r.EID,
		VID:          r.VID,
		Probability:  jsonFloat(r.Probability),
		MajorityFrac: jsonFloat(r.MajorityFrac),
		RunnerUp:     r.RunnerUp,
		Margin:       jsonFloat(r.Margin),
		Acceptable:   r.Acceptable,
		Window:       r.Window,
	}
}

// handleStream serves resolutions as server-sent events: the backlog first,
// then live emissions until the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	backlog, ch, cancel := s.stream.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, res := range backlog {
		if err := writeSSE(w, res); err != nil {
			return // client gone; nothing useful left to send
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case res, open := <-ch:
			if !open {
				return
			}
			if err := writeSSE(w, res); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE emits one resolution event frame. A write error means the client
// disconnected (or the connection broke) mid-frame; the caller must stop the
// stream rather than keep burning the subscription on a dead pipe.
func writeSSE(w http.ResponseWriter, r stream.Resolution) error {
	data, err := json.Marshal(toResolutionBody(r))
	if err != nil {
		return fmt.Errorf("server: encode resolution %d: %w", r.Seq, err)
	}
	if _, err := fmt.Fprintf(w, "event: resolution\ndata: %s\n\n", data); err != nil {
		return fmt.Errorf("server: write resolution %d: %w", r.Seq, err)
	}
	return nil
}
