package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	sc.Buffer(make([]byte, 0, ingestLineBuf), maxIngestLine)
	var body ingestBody
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		o, err := stream.DecodeObservation(text)
		if err != nil {
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

// An observation line is about 1 KiB (a 16x40 patch base64-encodes to 856
// bytes), so a body's line buffer starts at ingestLineBuf and grows only for
// a longer line, up to maxIngestLine; patches are base64-encoded pixel
// blocks, far below that bound.
const (
	ingestLineBuf = 4 << 10
	maxIngestLine = 4 << 20
)

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
// then live emissions until the client disconnects. Each frame carries its
// resolution's Seq as the event id, and a run of resolutions the
// subscription dropped (its channel was full) shows as a comment line naming
// the missing Seqs before the next frame.
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
	sse := &sseWriter{w: w}
	for _, res := range backlog {
		if err := sse.write(res); err != nil {
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
			if err := sse.write(res); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// sseWriter emits one subscription's resolution event frames. Resolutions
// are numbered from 1 without holes, so a frame whose Seq is not the one
// after the last written follows a gap, which it announces first as an SSE
// comment, ": gap <first>-<last>" — clients skip comments, and a reader that
// wants the lost resolutions knows which to fetch.
type sseWriter struct {
	w    io.Writer
	last int // Seq of the last frame written, 0 before the first
}

// write emits r's frame. A write error means the client disconnected (or the
// connection broke) mid-frame; the caller must stop the stream rather than
// keep burning the subscription on a dead pipe.
func (s *sseWriter) write(r stream.Resolution) error {
	data, err := json.Marshal(toResolutionBody(r))
	if err != nil {
		return fmt.Errorf("server: encode resolution %d: %w", r.Seq, err)
	}
	if r.Seq > s.last+1 {
		if _, err := fmt.Fprintf(s.w, ": gap %d-%d\n", s.last+1, r.Seq-1); err != nil {
			return fmt.Errorf("server: write gap before resolution %d: %w", r.Seq, err)
		}
	}
	if _, err := fmt.Fprintf(s.w, "id: %d\nevent: resolution\ndata: %s\n\n", r.Seq, data); err != nil {
		return fmt.Errorf("server: write resolution %d: %w", r.Seq, err)
	}
	s.last = r.Seq
	return nil
}
