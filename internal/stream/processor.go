package stream

import (
	"context"
	"io"

	"evmatching/internal/core"
)

// Processor is the consumer surface shared by the unsharded Engine and the
// sharded Router: everything a replay driver or ingest server needs, without
// caring how windowing is distributed. Both implementations synchronize
// internally and are safe for concurrent use.
type Processor interface {
	// Ingest consumes one observation, reporting whether it was accepted
	// (late observations are dropped with a nil error).
	Ingest(Observation) (bool, error)
	// Ingested returns the number of observations consumed, accepted or not.
	Ingested() int64
	// LateDropped returns the number of late-dropped observations.
	LateDropped() int64
	// OpenWindows returns the number of event-time windows still open.
	OpenWindows() int
	// Watermark returns the event-time watermark and whether any event has
	// been observed yet.
	Watermark() (int64, bool)
	// Resolutions returns the resolutions emitted so far, in emission order.
	Resolutions() []Resolution
	// Subscribe returns the resolution backlog and a channel of future
	// emissions; cancel releases the subscription.
	Subscribe() (backlog []Resolution, ch <-chan Resolution, cancel func())
	// Flush closes every window that has received an observation, emitting
	// any resolutions that follow.
	Flush() error
	// Checkpoint serializes the full processor state for later restore.
	Checkpoint(w io.Writer) error
	// Finalize flushes every open window and runs the batch-equivalent final
	// match over the accumulated store.
	Finalize(ctx context.Context) (*core.Report, error)
}

var (
	_ Processor = (*Engine)(nil)
	_ Processor = (*Router)(nil)
)
