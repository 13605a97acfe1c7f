package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Tracer records spans around the benchmark's calls into each layer and
// writes them out as Chrome trace-event JSON when the run ends. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[int][]int // per-lane stack of open span ids: the causing span
}

type span struct {
	id, parent int
	lane       int
	layer      string
	name       string
	start, end time.Duration
}

// NewTracer starts an empty trace whose timestamps count from now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), open: make(map[int][]int)}
}

// Lanes keep spans recorded by concurrent goroutines on separate rows.
const (
	laneMain   = 1
	laneReader = 2
)

// Span opens a span on the main lane and returns the function that closes
// it. The span's parent is the innermost span still open on the lane.
func (t *Tracer) Span(layer, name string) func() { return t.spanOn(laneMain, layer, name) }

func (t *Tracer) spanOn(lane int, layer, name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if st := t.open[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{id: id, parent: parent, lane: lane, layer: layer, name: name, start: start})
	t.open[lane] = append(t.open[lane], id)
	t.mu.Unlock()
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].end = end
		if st := t.open[lane]; len(st) > 0 {
			t.open[lane] = st[:len(st)-1]
		}
		t.mu.Unlock()
	}
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceEvent is one complete ("X") event of the Chrome trace-event format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// WriteFile writes the trace to path, creating its directory.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
