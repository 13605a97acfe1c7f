package evmatching_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"evmatching"
)

// Example demonstrates the core loop: generate a synthetic EV world, match
// a set of device identities to visual identities, and score against the
// generator's ground truth.
func Example() {
	cfg := evmatching.DefaultDatasetConfig()
	cfg.NumPersons = 80
	cfg.Density = 10
	cfg.NumWindows = 16
	ds, err := evmatching.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	targets := ds.SampleEIDs(20, rand.New(rand.NewSource(1)))
	rep, err := evmatching.Match(context.Background(), ds, evmatching.Options{}, targets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matched %d of %d targets\n", rep.Matched(), len(rep.Targets))
	fmt.Printf("accuracy %.0f%%\n", rep.Accuracy(ds.TruthVID)*100)
	// Output:
	// matched 20 of 20 targets
	// accuracy 100%
}

// ExampleMatcher_MatchAll shows universal matching followed by fused
// queries: one lookup answers with both identities.
func ExampleMatcher_MatchAll() {
	cfg := evmatching.DefaultDatasetConfig()
	cfg.NumPersons = 60
	cfg.Density = 10
	cfg.NumWindows = 16
	ds, err := evmatching.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m, err := evmatching.NewMatcher(ds, evmatching.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := m.MatchAll(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	idx, err := evmatching.BuildFusionIndex(ds, rep)
	if err != nil {
		log.Fatal(err)
	}
	e := ds.AllEIDs()[0]
	v, err := idx.VIDOf(e)
	if err != nil {
		log.Fatal(err)
	}
	back, err := idx.EIDOf(v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trip holds: %v\n", back == e)
	// Output:
	// round trip holds: true
}
