package stream

import "slices"

// frontier is the event-time front-end of a processor: the watermark, the
// late-drop decision, the close and flush targets, and the ingest counters.
// Engine and Router each hold one and drive it the same way — admit, absorb
// or route, observe, close — so which observations are accepted and when a
// window closes cannot depend on how windowing is distributed. Not safe for
// concurrent use; the owning processor's mutex guards it.
type frontier struct {
	windowMS, latenessMS int64

	maxTS       int64 // highest observed timestamp; -1 before the first event
	minOpen     int   // lowest window not yet closed
	ingested    int64 // observations consumed, accepted or dropped
	lateDropped int64
	// open lists, ascending, the windows that have admitted an observation
	// and are not closed yet. A handful at most (lateness / window + 1), so
	// a sorted slice beats a map: the common admit finds its window last.
	open []int
}

func newFrontier(windowMS, latenessMS int64) frontier {
	return frontier{windowMS: windowMS, latenessMS: latenessMS, maxTS: -1}
}

// admit counts one observation and reports whether it is on time; one whose
// window the watermark already closed is counted late and refused.
func (f *frontier) admit(ts int64) bool {
	f.ingested++
	w := int(ts / f.windowMS)
	if w < f.minOpen {
		f.lateDropped++
		return false
	}
	if i, found := slices.BinarySearch(f.open, w); !found {
		f.open = slices.Insert(f.open, i, w)
	}
	return true
}

// observe advances the watermark over an admitted observation's timestamp.
// closes reports whether windows below target must now close.
func (f *frontier) observe(ts int64) (target int, closes bool) {
	if ts <= f.maxTS {
		return f.minOpen, false
	}
	f.maxTS = ts
	target = int(floorDiv(f.maxTS-f.latenessMS, f.windowMS))
	return target, target > f.minOpen
}

// flushTarget is the end-of-log close target: one past the highest open
// window, or the current close point when nothing is open.
func (f *frontier) flushTarget() int {
	if n := len(f.open); n > 0 && f.open[n-1] >= f.minOpen {
		return f.open[n-1] + 1
	}
	return f.minOpen
}

// closeBelow records that every window below target is closed.
func (f *frontier) closeBelow(target int) {
	if target > f.minOpen {
		f.minOpen = target
	}
	i, _ := slices.BinarySearch(f.open, target)
	f.open = f.open[i:]
}

// watermark returns the event-time watermark and whether any event has been
// observed yet.
func (f *frontier) watermark() (int64, bool) {
	if f.maxTS < 0 {
		return 0, false
	}
	return f.maxTS - f.latenessMS, true
}

// record writes the frontier into a checkpoint header. The open set is not
// stored: it is the windows of the image's open buckets.
func (f *frontier) record(cp *checkpointFile) {
	cp.Ingested, cp.LateDropped, cp.MaxTS, cp.MinOpen = f.ingested, f.lateDropped, f.maxTS, f.minOpen
}

// restore resumes from a checkpoint header and re-derives the open set from
// the image's open buckets.
func (f *frontier) restore(cp *checkpointFile) {
	f.ingested, f.lateDropped, f.maxTS, f.minOpen = cp.Ingested, cp.LateDropped, cp.MaxTS, cp.MinOpen
	f.open = f.open[:0]
	for _, cb := range cp.Buckets {
		f.open = append(f.open, cb.Window)
	}
	slices.Sort(f.open)
	f.open = slices.Compact(f.open)
}

// floorDiv is integer division rounding toward negative infinity, so a
// pre-epoch watermark (before any event) never closes window 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
