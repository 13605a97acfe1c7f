// Command evviz renders an EV dataset as an SVG: the cell layout and
// selected trajectories (solid = visual tracks, dashed = electronic tracks).
//
// Usage:
//
//	evviz -data world.gob -out world.svg [-persons 0,1,2] [-eids aa:bb:...]
//	      [-size 800]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"evmatching"
	"evmatching/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evviz:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("evviz", flag.ContinueOnError)
	var (
		data    = fs.String("data", "", "dataset file from evgen (required)")
		out     = fs.String("out", "", "output SVG file (required)")
		persons = fs.String("persons", "", "comma-separated person indexes to draw")
		eids    = fs.String("eids", "", "comma-separated EIDs whose E-trajectories to draw")
		size    = fs.Int("size", 800, "output edge length in pixels")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *out == "" {
		return errors.New("-data and -out are required")
	}
	ds, err := evmatching.LoadDataset(*data)
	if err != nil {
		return err
	}
	opts := viz.Options{Size: *size}
	for _, s := range splitList(*persons) {
		idx, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad person index %q: %w", s, err)
		}
		opts.Persons = append(opts.Persons, idx)
	}
	for _, s := range splitList(*eids) {
		opts.EIDs = append(opts.EIDs, evmatching.EID(s))
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := viz.Render(bw, ds, opts); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d persons, %d E-tracks)\n", *out, len(opts.Persons), len(opts.EIDs))
	return nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
