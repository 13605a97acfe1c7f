// Package stream is the online ingestion and incremental-matching subsystem:
// raw timestamped E/V observations are folded into EV-Scenarios per
// (cell, window) by an event-time windower, each closed scenario refines a
// live partition incrementally, and EIDs whose set becomes a singleton are
// resolved early through vfilter. Replaying a complete observation log and
// finalizing produces a report whose Fingerprint equals the batch SS run
// under core.ScanInOrder — the equivalence DESIGN.md §10 argues and the
// golden tests pin, including across checkpoint/restore crash schedules.
package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// LogVersion is the observation-log format version this package writes.
const LogVersion = 1

// ErrBadObservation reports a malformed observation.
var ErrBadObservation = errors.New("stream: bad observation")

// ErrBadLog reports a malformed observation log.
var ErrBadLog = errors.New("stream: bad observation log")

// Kind tags an observation as electronic or visual.
type Kind uint8

// Observation kinds.
const (
	// KindE is an electronic sighting: one EID observed in a cell.
	KindE Kind = iota + 1
	// KindV is a visual sighting: one detection captured in a cell.
	KindV
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindE:
		return "E"
	case KindV:
		return "V"
	default:
		return "invalid"
	}
}

// MarshalJSON encodes the kind as "E" or "V".
func (k Kind) MarshalJSON() ([]byte, error) {
	switch k {
	case KindE, KindV:
		return json.Marshal(k.String())
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrBadObservation, uint8(k))
	}
}

// UnmarshalJSON decodes "E" or "V".
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "E":
		*k = KindE
	case "V":
		*k = KindV
	default:
		return fmt.Errorf("%w: kind %q", ErrBadObservation, s)
	}
	return nil
}

// Observation is one raw timestamped sighting, the unit of stream ingestion.
// An E observation carries EID and Attr (scenario.AttrInclusive or
// scenario.AttrVague, serialized as 1 or 2); a V observation carries VID,
// Patch, and the ground-truth Person index.
type Observation struct {
	// TS is the event time in milliseconds; the window index is TS divided
	// by the log's window length. Must be non-negative.
	TS   int64      `json:"ts"`
	Kind Kind       `json:"kind"`
	Cell geo.CellID `json:"cell"`

	EID  ids.EID       `json:"eid,omitempty"`
	Attr scenario.Attr `json:"attr,omitempty"`

	VID    ids.VID        `json:"vid,omitempty"`
	Person int            `json:"person"`
	Patch  *feature.Patch `json:"patch,omitempty"`
}

// Validate reports whether the observation is well-formed.
func (o Observation) Validate() error {
	if err := o.validateWindowed(); err != nil {
		return err
	}
	if o.Kind == KindV && (o.Patch == nil || len(o.Patch.Pix) == 0 || len(o.Patch.Pix) != o.Patch.W*o.Patch.H) {
		return fmt.Errorf("%w: V observation with malformed patch", ErrBadObservation)
	}
	return nil
}

// validateWindowed checks every field a windower reads: all but the patch,
// which an observation arrives without on the shard wire.
func (o *Observation) validateWindowed() error {
	if o.TS < 0 {
		return fmt.Errorf("%w: negative ts %d", ErrBadObservation, o.TS)
	}
	if o.Cell < 0 {
		return fmt.Errorf("%w: cell %d", ErrBadObservation, o.Cell)
	}
	switch o.Kind {
	case KindE:
		if o.EID == ids.None {
			return fmt.Errorf("%w: E observation without EID", ErrBadObservation)
		}
		if o.Attr != scenario.AttrInclusive && o.Attr != scenario.AttrVague {
			return fmt.Errorf("%w: E observation attr %d", ErrBadObservation, o.Attr)
		}
	case KindV:
		if o.VID == ids.NoVID {
			return fmt.Errorf("%w: V observation without VID", ErrBadObservation)
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrBadObservation, uint8(o.Kind))
	}
	return nil
}

// Header is the observation log's first line: the parameters a consumer must
// agree on to window the events identically.
type Header struct {
	Version  int   `json:"version"`
	WindowMS int64 `json:"windowMs"`
	// Dim is the feature descriptor dimensionality of the patches.
	Dim int `json:"dim"`
}

// Validate reports whether the header is usable.
func (h Header) Validate() error {
	if h.Version != LogVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadLog, h.Version, LogVersion)
	}
	if h.WindowMS <= 0 {
		return fmt.Errorf("%w: windowMs %d", ErrBadLog, h.WindowMS)
	}
	if h.Dim < 2 {
		return fmt.Errorf("%w: dim %d", ErrBadLog, h.Dim)
	}
	return nil
}

// headerLine is the wire form of the header, tagged so a reader can tell it
// from an observation line.
type headerLine struct {
	Kind string `json:"kind"`
	Header
}

// ReadLog decodes a complete observation log: the header line, then one
// validated observation per line.
func ReadLog(r io.Reader) (Header, []Observation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Header{}, nil, fmt.Errorf("stream: read header: %w", err)
		}
		return Header{}, nil, fmt.Errorf("%w: empty log", ErrBadLog)
	}
	var hl headerLine
	if err := json.Unmarshal(sc.Bytes(), &hl); err != nil {
		return Header{}, nil, fmt.Errorf("%w: header line: %w", ErrBadLog, err)
	}
	if hl.Kind != "header" {
		return Header{}, nil, fmt.Errorf("%w: first line kind %q", ErrBadLog, hl.Kind)
	}
	if err := hl.Header.Validate(); err != nil {
		return Header{}, nil, err
	}
	var obs []Observation
	for line := 2; sc.Scan(); line++ {
		var o Observation
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return Header{}, nil, fmt.Errorf("%w: line %d: %w", ErrBadLog, line, err)
		}
		if err := o.Validate(); err != nil {
			return Header{}, nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		obs = append(obs, o)
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, fmt.Errorf("stream: read line %d: %w", len(obs)+2, err)
	}
	return hl.Header, obs, nil
}

// EventsFromDataset flattens a generated dataset into a time-ordered
// observation log: one E record per (scenario, EID) and one V record per
// detection, each stamped with a seeded timestamp inside its window. The
// flattening is deterministic in (ds, windowMS, seed). Replaying the result
// through an Engine with matching window length rebuilds the dataset's store
// exactly (DESIGN.md §10).
//
// The whole log is materialized in memory; at scale-preset sizes prefer
// WriteEventsLog, which emits the byte-identical log window by window.
func EventsFromDataset(ds *dataset.Dataset, windowMS int64, seed int64) (Header, []Observation, error) {
	var obs []Observation
	hdr, err := eachWindowEvents(ds, windowMS, seed, func(batch []Observation) error {
		obs = append(obs, batch...)
		return nil
	})
	if err != nil {
		return Header{}, nil, err
	}
	return hdr, obs, nil
}

// eachWindowEvents drives the flattening shared by EventsFromDataset and
// WriteEventsLog: per ascending window, the observations are drawn in store
// order (one seeded rng consumed across all windows) and stable-sorted by
// timestamp, then handed to emit. Window timestamp ranges
// [w·windowMS, (w+1)·windowMS) are disjoint and windows ascend, so the
// concatenation of the per-window sorts IS the globally stable-sorted log —
// which is why the streaming writer needs memory for only one window.
// The batch slice is reused across calls; emit must not retain it.
func eachWindowEvents(ds *dataset.Dataset, windowMS int64, seed int64, emit func([]Observation) error) (Header, error) {
	if ds == nil {
		return Header{}, errors.New("stream: nil dataset")
	}
	if windowMS <= 0 {
		return Header{}, fmt.Errorf("%w: windowMs %d", ErrBadLog, windowMS)
	}
	rng := rand.New(rand.NewSource(seed))
	var batch []Observation
	for _, w := range ds.Store.Windows() {
		if w < 0 {
			return Header{}, fmt.Errorf("%w: negative window %d", ErrBadLog, w)
		}
		base := int64(w) * windowMS
		batch = batch[:0]
		for _, id := range ds.Store.AtWindow(w) {
			esc := ds.Store.E(id)
			for _, e := range esc.SortedEIDs() {
				batch = append(batch, Observation{
					TS:   base + rng.Int63n(windowMS),
					Kind: KindE,
					Cell: esc.Cell,
					EID:  e,
					Attr: esc.EIDs[e],
				})
			}
			vsc := ds.Store.V(id)
			if vsc == nil {
				continue
			}
			for _, det := range vsc.Detections {
				p := det.Patch
				batch = append(batch, Observation{
					TS:     base + rng.Int63n(windowMS),
					Kind:   KindV,
					Cell:   vsc.Cell,
					VID:    det.VID,
					Person: det.TruePerson,
					Patch:  &p,
				})
			}
		}
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].TS < batch[j].TS })
		if err := emit(batch); err != nil {
			return Header{}, err
		}
	}
	return Header{Version: LogVersion, WindowMS: windowMS, Dim: ds.Config.DescriptorDim()}, nil
}

// WriteEventsLog streams the dataset's observation log to w without ever
// materializing more than one window of observations — the scale-preset path
// for `evgen -events`, byte-identical to the JSON lines of
// EventsFromDataset's log (the equivalence test pins this). It returns the
// number of observations written.
func WriteEventsLog(w io.Writer, ds *dataset.Dataset, windowMS int64, seed int64) (int, error) {
	hdr := Header{Version: LogVersion, WindowMS: windowMS, Dim: 0}
	if ds != nil {
		hdr.Dim = ds.Config.DescriptorDim()
	}
	if err := hdr.Validate(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(headerLine{Kind: "header", Header: hdr}); err != nil {
		return 0, fmt.Errorf("stream: write header: %w", err)
	}
	total := 0
	if _, err := eachWindowEvents(ds, windowMS, seed, func(batch []Observation) error {
		for i := range batch {
			if err := batch[i].Validate(); err != nil {
				return fmt.Errorf("stream: observation %d: %w", total+i, err)
			}
			if err := enc.Encode(batch[i]); err != nil {
				return fmt.Errorf("stream: write observation %d: %w", total+i, err)
			}
		}
		total += len(batch)
		return nil
	}); err != nil {
		return 0, err
	}
	return total, bw.Flush()
}
