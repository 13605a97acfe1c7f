package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/stream"
)

// Stream parameters shared by every streaming workload and by evserve's
// defaults, so the in-process reference and the served path window alike.
const (
	windowMS   = 1000
	latenessMS = 250
	// postLines is the number of JSONL observation lines per POST /ingest.
	postLines = 200
	// displaceMaxMS bounds how late a displaced observation arrives. It is
	// below latenessMS, so no displaced observation may be dropped.
	displaceMaxMS = 200
)

// roundSeed derives the world seed of one round from the run's seed, so a
// run measures several independent worlds and equal seeds repeat them.
func roundSeed(seed int64, round int) int64 { return seed*64 + int64(round) + 1 }

// paperConfig is the paper's §VI world: 1000 persons, density 60, 32 windows.
func paperConfig(seed int64, short bool) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	cfg.NumWindows = 32
	if short {
		cfg.NumPersons, cfg.Density, cfg.NumWindows = 60, 10, 8
	}
	return cfg
}

// sparseConfig is the sparse-city scale preset: 100k EIDs over ~12.5k cells.
func sparseConfig(seed int64, short bool) (dataset.Config, error) {
	cfg, err := dataset.ScalePreset(dataset.PresetSparseCity)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = seed
	if short {
		cfg.NumPersons = 2000
	}
	return cfg, nil
}

// sparseTargets is the seeded target-sample size on the sparse world.
func sparseTargets(short bool) int {
	if short {
		return 100
	}
	return 2000
}

// serveConfig is the practical-setting world the served path ingests:
// multi-tick windows, E-localization noise, vague zones, 30% missed
// detections, and crowded cells so one window close resolves few targets.
func serveConfig(seed int64, short bool) dataset.Config {
	cfg := dataset.DefaultConfig().Practical()
	cfg.Seed = seed
	cfg.Density = 180
	cfg.VIDMissingRate = 0.3
	cfg.NumWindows = 64
	if short {
		cfg.NumPersons, cfg.Density, cfg.NumWindows = 60, 20, 10
	}
	return cfg
}

// streamConfig is the engine configuration for a world's universal target
// set; it matches what evserve -stream-window 1000 builds for the same file.
func streamConfig(ds *dataset.Dataset) stream.Config {
	return stream.Config{
		Targets:    ds.AllEIDs(),
		WindowMS:   windowMS,
		LatenessMS: latenessMS,
		Dim:        ds.Config.DescriptorDim(),
	}
}

// Displace reorders a time-ordered log so that a tenth of the observations
// arrive up to displaceMaxMS late: each keeps its timestamp and moves to
// where timestamp+delay sorts. The result is deterministic in (obs, seed).
func Displace(obs []stream.Observation, seed int64) []stream.Observation {
	rng := rand.New(rand.NewSource(seed))
	type keyed struct {
		arrival int64
		o       stream.Observation
	}
	ks := make([]keyed, len(obs))
	for i, o := range obs {
		ks[i] = keyed{arrival: o.TS, o: o}
		if rng.Intn(10) == 0 {
			ks[i].arrival += 1 + rng.Int63n(displaceMaxMS)
		}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].arrival < ks[j].arrival })
	out := make([]stream.Observation, len(ks))
	for i, k := range ks {
		out[i] = k.o
	}
	return out
}

// sentinelEID is an EID outside every target set; its one observation lies
// beyond the log's last window and pushes the watermark past it.
const sentinelEID = ids.EID("bench-sentinel")

// WithSentinel appends one E observation late enough that the watermark
// closes every window of the log. A served engine has no flush endpoint, so
// without it the last windows would never close and their resolutions would
// never be emitted.
func WithSentinel(obs []stream.Observation) []stream.Observation {
	var maxTS int64
	for _, o := range obs {
		if o.TS > maxTS {
			maxTS = o.TS
		}
	}
	lastWindow := maxTS / windowMS
	return append(obs[:len(obs):len(obs)], stream.Observation{
		TS:   (lastWindow+1)*windowMS + latenessMS,
		Kind: stream.KindE,
		Cell: 0,
		EID:  sentinelEID,
		Attr: scenario.AttrInclusive,
	})
}

// ClosingIndex replays the engine's watermark rule (watermark = highest
// timestamp seen − lateness; a window closes once the watermark reaches its
// end) over an arrival-ordered log. closedBy[w] is the index of the
// observation whose ingestion closed window w, which is the window a
// Resolution emitted during that ingestion carries; frontier[i] is the
// lowest still-open window after observation i.
func ClosingIndex(obs []stream.Observation) (closedBy map[int]int, frontier []int) {
	closedBy = make(map[int]int)
	frontier = make([]int, len(obs))
	maxTS := int64(-1)
	minOpen := 0
	for i, o := range obs {
		if o.TS > maxTS {
			maxTS = o.TS
			// maxTS-latenessMS may be negative before the first window ends;
			// Go's division truncates toward zero, which never closes window 0.
			if wm := maxTS - latenessMS; wm >= 0 {
				if target := int(wm / windowMS); target > minOpen {
					for w := minOpen; w < target; w++ {
						closedBy[w] = i
					}
					minOpen = target
				}
			}
		}
		frontier[i] = minOpen
	}
	return closedBy, frontier
}

// PostBodies encodes the log as JSONL request bodies of postLines lines.
func PostBodies(obs []stream.Observation) ([][]byte, error) {
	bodies := make([][]byte, 0, (len(obs)+postLines-1)/postLines)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range obs {
		if err := enc.Encode(&obs[i]); err != nil {
			return nil, fmt.Errorf("encode observation %d: %w", i, err)
		}
		if (i+1)%postLines == 0 || i == len(obs)-1 {
			bodies = append(bodies, append([]byte(nil), buf.Bytes()...))
			buf.Reset()
		}
	}
	return bodies, nil
}
