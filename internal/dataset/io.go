package dataset

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// fileVersion guards the on-disk format.
const fileVersion = 1

// filePair is the serialized form of one EV-Scenario pair.
type filePair struct {
	E    scenario.EScenario
	V    scenario.VScenario
	HasV bool
}

// fileFormat is the gob-encoded dataset file layout. Gob skips fields a
// file carries that the type does not, so files holding the retired RSSI
// station list or localisation config still load.
type fileFormat struct {
	Version int
	Config  Config
	Persons []Person
	Pairs   []filePair
}

// Write serializes the dataset to w.
func (d *Dataset) Write(w io.Writer) error {
	ff := fileFormat{
		Version: fileVersion,
		Config:  d.Config,
		Persons: d.Persons,
		Pairs:   make([]filePair, 0, d.Store.Len()),
	}
	for id := scenario.ID(0); int(id) < d.Store.Len(); id++ {
		p := filePair{E: *d.Store.E(id)}
		if v := d.Store.V(id); v != nil {
			p.V = *v
			p.HasV = true
		}
		ff.Pairs = append(ff.Pairs, p)
	}
	if err := gob.NewEncoder(w).Encode(ff); err != nil {
		return fmt.Errorf("dataset: encode: %w", err)
	}
	return nil
}

// Read deserializes a dataset written by Write, rebuilding the layout and
// scenario indexes from the embedded config.
func Read(r io.Reader) (*Dataset, error) {
	var ff fileFormat
	if err := gob.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	if ff.Version != fileVersion {
		return nil, fmt.Errorf("dataset: unsupported file version %d", ff.Version)
	}
	if err := ff.Config.Validate(); err != nil {
		return nil, err
	}
	layout, err := buildLayout(ff.Config)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		Config:  ff.Config,
		Layout:  layout,
		Store:   scenario.NewStore(layout),
		Persons: ff.Persons,
		byEID:   make(map[ids.EID]int, len(ff.Persons)),
	}
	for _, p := range ff.Persons {
		if p.EID != ids.None {
			d.byEID[p.EID] = p.Index
		}
	}
	for i := range ff.Pairs {
		pair := &ff.Pairs[i]
		var v *scenario.VScenario
		if pair.HasV {
			v = &pair.V
		}
		if _, err := d.Store.Add(&pair.E, v); err != nil {
			return nil, fmt.Errorf("dataset: rebuild store: %w", err)
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
	bw := bufio.NewWriter(f)
	if err := d.Write(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadFile reads a dataset from the named file.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
