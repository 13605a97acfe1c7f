// Streaming: online EV-Matching over live surveillance. A generated world
// is flattened into a time-ordered observation log and fed to the stream
// engine one observation at a time; as the watermark closes each window the
// engine refines its EID partition and emits a resolution for every target
// that has just become distinguishable. Those early resolutions are
// provisional — each is matched on the few windows closed by then — and
// Finalize ends with the authoritative match over everything streamed.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"evmatching"
	"evmatching/internal/stream"
)

func main() {
	cfg := evmatching.DefaultDatasetConfig()
	cfg.NumPersons = 300
	cfg.Density = 20
	cfg.NumWindows = 24
	ds, err := evmatching.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	targets := ds.SampleEIDs(40, rand.New(rand.NewSource(5)))

	const windowMS = 1000
	_, obs, err := stream.EventsFromDataset(ds, windowMS, 5)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := stream.NewEngine(stream.Config{Targets: targets, WindowMS: windowMS, Dim: ds.Config.DescriptorDim()})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("online matching of %d EIDs over %d observations in %d windows:\n\n", len(targets), len(obs), cfg.NumWindows)
	fmt.Println("windows closed  resolved  early matches correct")
	closed, resolved := 0, 0
	for _, o := range obs {
		if _, err := eng.Ingest(o); err != nil {
			log.Fatal(err)
		}
		// The watermark entering a new window closed every window before it.
		wm, _ := eng.Watermark()
		if int(wm/windowMS) == closed {
			continue
		}
		closed = int(wm / windowMS)
		res := eng.Resolutions()
		if len(res) == resolved {
			continue
		}
		resolved = len(res)
		correct := 0
		for _, r := range res {
			if r.VID == ds.TruthVID(r.EID) {
				correct++
			}
		}
		fmt.Printf("%14d  %5d/%d  %10d\n", closed, resolved, len(targets), correct)
	}

	rep, err := eng.Finalize(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nend of stream, all %d windows matched together: %d/%d matched, accuracy %.1f%%\n",
		cfg.NumWindows, rep.Matched(), len(targets), 100*rep.Accuracy(ds.TruthVID))
}
