package stream_test

import (
	"context"
	"fmt"
	"log"

	"evmatching/internal/dataset"
	"evmatching/internal/stream"
)

// ExampleEngine shows online matching: a world's observations stream into an
// engine, each window the watermark closes can resolve more targets, and
// Finalize runs the authoritative match over everything streamed.
func ExampleEngine() {
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 60
	cfg.Density = 10
	cfg.NumWindows = 12
	ds, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	targets := ds.AllEIDs()[:10]
	const windowMS = 1000
	_, obs, err := stream.EventsFromDataset(ds, windowMS, 1)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := stream.NewEngine(stream.Config{Targets: targets, WindowMS: windowMS, Dim: ds.Config.DescriptorDim()})
	if err != nil {
		log.Fatal(err)
	}
	resolved := 0
	for _, o := range obs {
		if _, err := eng.Ingest(o); err != nil {
			log.Fatal(err)
		}
		if n := len(eng.Resolutions()); n != resolved {
			wm, _ := eng.Watermark()
			fmt.Printf("%d windows closed: %d of %d targets resolved\n", wm/windowMS, n, len(targets))
			resolved = n
		}
	}
	rep, err := eng.Finalize(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("end of stream: matched %d, accuracy %.0f%%\n", rep.Matched(), rep.Accuracy(ds.TruthVID)*100)
	// Output:
	// 1 windows closed: 1 of 10 targets resolved
	// 2 windows closed: 4 of 10 targets resolved
	// 3 windows closed: 10 of 10 targets resolved
	// end of stream: matched 10, accuracy 100%
}
