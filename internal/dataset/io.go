package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// A world file is a wire record file, "EVWD" version 2: a header record —
// the Config as encoding/json, the persons' (EID, VID) pairs in index order,
// the scenario count — then one scenario.Record per stored pair in store-ID
// order. Version 1 (gob) is regenerated from its Config, not read.
const (
	fileMagic   = "EVWD"
	fileVersion = 2
)

// Write serializes the dataset to w; equal worlds give equal bytes.
func (d *Dataset) Write(w io.Writer) error {
	cfg, err := json.Marshal(d.Config)
	if err != nil {
		return fmt.Errorf("dataset: encode config: %w", err)
	}
	fw := wire.NewFileWriter(w, fileMagic, fileVersion)
	fw.Record(func(b []byte) []byte {
		b = wire.AppendSlice(wire.AppendBytes(b, cfg), d.Persons, func(b []byte, p *Person) []byte {
			return wire.AppendString(wire.AppendString(b, string(p.EID)), string(p.VID))
		})
		return wire.AppendUvarint(b, uint64(d.Store.Len()))
	})
	for id := scenario.ID(0); int(id) < d.Store.Len(); id++ {
		rec := d.Store.Record(id, d.Store.V(id))
		fw.Record(func(b []byte) []byte { return scenario.AppendRecord(b, &rec) })
	}
	if err := fw.Flush(); err != nil {
		return fmt.Errorf("dataset: write: %w", err)
	}
	return nil
}

// Read deserializes a dataset written by Write into a store rebuilt record
// by record; a person's index is its position. It refuses a config in any
// form but Write's, a person count other than NumPersons, a missing or
// repeated VID, a repeated EID and a scenario outside the world.
func Read(r io.Reader) (*Dataset, error) {
	fr, err := wire.NewFileReader(r, fileMagic, fileVersion)
	if errors.Is(err, wire.ErrNoMagic) {
		return nil, fmt.Errorf("dataset: not a version-%d world file (version 1 was gob): regenerate it with evgen", fileVersion)
	} else if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var cfg Config
	var persons []Person
	var count uint64
	if err := fr.Record("header", func(r *wire.Reader) {
		raw := r.Bytes()
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err := dec.Decode(&cfg)
		if again, _ := json.Marshal(cfg); err == nil && !bytes.Equal(again, raw) {
			err = errors.New("not in the form Write gives")
		}
		if err != nil {
			r.Fail("config: " + err.Error())
		}
		persons = wire.ReadSlice(r, 2, func(r *wire.Reader, p *Person) {
			p.EID, p.VID = ids.EID(r.String()), ids.VID(r.String())
		})
		count = r.Uvarint()
	}); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	d, err := newWorld(cfg, persons)
	if err != nil {
		return nil, err
	}
	for n := uint64(0); n < count; n++ {
		var rec scenario.Record
		if err := fr.Record("scenario", func(r *wire.Reader) { scenario.ReadRecord(r, &rec) }); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		if rec.Window < 0 || rec.Window >= cfg.NumWindows || rec.Cell < 0 || int(rec.Cell) >= d.Layout.NumCells() {
			return nil, fmt.Errorf("dataset: scenario %d: window %d cell %d outside the world", n, rec.Window, rec.Cell)
		}
		if _, err := d.Store.Add(rec.Cell, rec.Window, rec.EIDs, rec.V()); err != nil {
			return nil, fmt.Errorf("dataset: rebuild store: %w", err)
		}
	}
	if err := fr.End(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return d, nil
}

// newWorld is an empty world over a valid cfg's layout holding persons, each
// indexed by its position.
func newWorld(cfg Config, persons []Person) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(persons) != cfg.NumPersons {
		return nil, fmt.Errorf("dataset: %d persons, config says %d", len(persons), cfg.NumPersons)
	}
	layout, err := buildLayout(cfg)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Config: cfg, Layout: layout, Store: scenario.NewStore(layout), Persons: persons,
		byEID: make(map[ids.EID]int, len(persons))}
	vids := make(map[ids.VID]bool, len(persons))
	for i := range persons {
		p := &persons[i]
		p.Index = i
		if _, dup := d.byEID[p.EID]; p.VID == ids.NoVID || vids[p.VID] || dup {
			return nil, fmt.Errorf("dataset: person %d: VID %q missing or repeated, or EID %q repeated", i, p.VID, p.EID)
		}
		vids[p.VID] = true
		if p.EID != ids.None {
			d.byEID[p.EID] = i
		}
	}
	return d, nil
}

// SaveFile writes the dataset to the named file.
func (d *Dataset) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: close: %w", cerr)
		}
	}()
	return d.Write(f)
}

// LoadFile reads a dataset from the named file.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return Read(f)
}
