// Command evgen generates a synthetic EV dataset file: persons with WiFi-MAC
// EIDs and visual appearances moving by random waypoint, discretized into
// EV-Scenarios, as a version-2 world file of binary records (internal/dataset);
// a gob world file from an older build is regenerated, not converted.
//
// With -events it additionally (or instead) flattens the world into the
// time-ordered JSONL observation log that cmd/evstream replays: one record
// per EID sighting and per detection, timestamped inside its window.
//
// Usage:
//
//	evgen -out world.bin [-preset sparse-city|dense-core]
//	      [-persons 1000] [-density 60] [-windows 64]
//	      [-seed 1] [-layout grid|hex] [-practical] [-eid-miss 0] [-vid-miss 0]
//	      [-events obs.jsonl] [-window-ms 1000]
//
// -preset starts from a named scale preset; explicit shape flags given
// alongside it override the preset's values.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"evmatching"
	"evmatching/internal/stream"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("evgen", flag.ContinueOnError)
	var (
		out       = fs.String("out", "", "output dataset file")
		events    = fs.String("events", "", "output JSONL observation log for stream replay")
		windowMS  = fs.Int64("window-ms", 1000, "event-log window length in milliseconds")
		preset    = fs.String("preset", "", "scale preset to start from: "+strings.Join(evmatching.ScalePresetNames(), " or "))
		persons   = fs.Int("persons", 1000, "number of human objects")
		density   = fs.Float64("density", 60, "average persons per cell")
		windows   = fs.Int("windows", 64, "number of scenario time windows")
		seed      = fs.Int64("seed", 1, "generation seed")
		layout    = fs.String("layout", "grid", "cell layout: grid or hex")
		practical = fs.Bool("practical", false, "practical setting: drift, vague zones, multi-tick windows")
		eidMiss   = fs.Float64("eid-miss", 0, "fraction of persons without a device")
		vidMiss   = fs.Float64("vid-miss", 0, "per-detection miss probability")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" && *events == "" {
		return errors.New("at least one of -out and -events is required")
	}
	cfg, err := baseConfig(*preset)
	if err != nil {
		return err
	}
	set := setFlags(fs)
	if set["persons"] {
		cfg.NumPersons = *persons
	}
	if set["density"] {
		cfg.Density = *density
	}
	if set["windows"] {
		cfg.NumWindows = *windows
	}
	cfg.Seed = *seed
	switch *layout {
	case "grid":
		cfg.Layout = evmatching.LayoutGrid
	case "hex":
		cfg.Layout = evmatching.LayoutHex
	default:
		return fmt.Errorf("unknown layout %q", *layout)
	}
	if *practical {
		cfg = cfg.Practical()
	}
	if set["eid-miss"] {
		cfg.EIDMissingRate = *eidMiss
	}
	if set["vid-miss"] {
		cfg.VIDMissingRate = *vidMiss
	}

	ds, err := evmatching.Generate(cfg)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := ds.SaveFile(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d persons, %d EIDs, %d cells, %d scenarios\n",
			*out, len(ds.Persons), len(ds.AllEIDs()), ds.Layout.NumCells(), ds.Store.Len())
	}
	if *events != "" {
		if err := writeEvents(ds, *events, *windowMS, *seed); err != nil {
			return err
		}
	}
	return nil
}

// baseConfig resolves the starting configuration: the named scale preset if
// -preset was given, the paper defaults otherwise.
func baseConfig(preset string) (evmatching.DatasetConfig, error) {
	if preset == "" {
		return evmatching.DefaultDatasetConfig(), nil
	}
	return evmatching.ScaleDatasetConfig(preset)
}

// setFlags reports which flags were given explicitly on the command line, so
// shape flags override a preset only when the user actually typed them.
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// writeEvents streams the dataset's observation log to path one window at a
// time — at scale-preset sizes the flattened log would dwarf the dataset
// itself, so it is never materialized.
func writeEvents(ds *evmatching.Dataset, path string, windowMS, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := stream.WriteEventsLog(f, ds, windowMS, seed)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d observations over %d windows (window %d ms, dim %d)\n",
		path, n, ds.Config.NumWindows, windowMS, ds.Config.DescriptorDim())
	return nil
}
