// Package benchsuite runs the repository's reference benchmarks through
// testing.Benchmark and reports them as machine-readable results: time/op,
// allocs/op, bytes/op, plus the paper-shape metrics (selected scenarios,
// accuracy) for the end-to-end match workloads. cmd/evbench -json uses it to
// produce BENCH_baseline.json, the file perf PRs are judged against.
//
// The end-to-end workloads mirror bench_test.go exactly (same dataset config,
// same seeded target sample) so a suite result is directly comparable with
// `go test -bench BenchmarkMatch` output.
package benchsuite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/scenario"
	"evmatching/internal/stream"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the on-disk JSON shape of a baseline.
type File struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Results   []Result `json:"results"`
}

type benchmark struct {
	name string
	fn   func(b *testing.B)
}

// matchBench mirrors bench_test.go's benchMatch: quick-scale 200-person
// dataset, 80 seeded targets, matcher constructed inside the timed loop.
func matchBench(alg core.Algorithm, mode core.Mode) func(b *testing.B) {
	return matchBenchN(core.Options{Algorithm: alg, Mode: mode}, 80)
}

// matchBenchN is the generalized form: full Options control (worker count,
// batch size) and a configurable target-sample size so the CI entry points
// can pin a worker count or run a shortened workload.
func matchBenchN(opts core.Options, numTargets int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := dataset.DefaultConfig()
		cfg.NumPersons = 200
		cfg.Density = 15
		cfg.NumWindows = 32
		ds, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		targets := ds.SampleEIDs(numTargets, rand.New(rand.NewSource(5)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := core.New(ds, opts)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := m.Match(context.Background(), targets)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rep.SelectedScenarios), "selected")
			b.ReportMetric(rep.Accuracy(ds.TruthVID)*100, "acc%")
			if rep.Spill.Spilled() {
				b.ReportMetric(float64(rep.Spill.BytesSpilled)/1024, "spill_kb")
			}
		}
	}
}

// matchSSSpillBench is the out-of-core overhead benchmark: the exact
// MatchSSParallel workload (same dataset, targets, worker pin) squeezed
// under a shuffle budget small enough that every E/V-stage reducer bucket
// spills to sorted runs and k-way merges back (DESIGN.md §14). Comparing
// its time/op against MatchSSParallel prices the external-merge path; the
// spill_kb metric proves the run actually went out of core.
func matchSSSpillBench() func(b *testing.B) {
	return matchBenchN(core.Options{
		Algorithm: core.AlgorithmSS,
		Mode:      core.ModeParallel,
		Workers:   4,
		MemBudget: 4 << 10,
	}, 80)
}

// scaleSparseTargets is the target-sample size the sparse-world blocking
// benchmarks and the scale smoke test share.
const scaleSparseTargets = 32

// Scale worlds for the blocking benchmarks, generated once per process and
// shared between the registry entries, the go-test benchmarks, and the scale
// smoke test: the sparse-city 100k preset alone takes several seconds to
// generate, and every consumer wants the identical world anyway.
var (
	sparseOnce sync.Once
	sparseDS   *dataset.Dataset
	sparseErr  error

	denseOnce sync.Once
	denseDS   *dataset.Dataset
	denseErr  error
)

// sparseWorld returns the shared sparse-city 100k-EID world — the regime the
// blocking index targets, where a target co-occurs with a vanishing fraction
// of the population.
func sparseWorld() (*dataset.Dataset, error) {
	sparseOnce.Do(func() {
		cfg, err := dataset.ScalePreset(dataset.PresetSparseCity)
		if err != nil {
			sparseErr = err
			return
		}
		sparseDS, sparseErr = dataset.Generate(cfg)
	})
	return sparseDS, sparseErr
}

// denseWorld returns the shared dense worst case: crowded cells and a
// universal target set, so nearly every scenario holds a live target and
// pruning almost never fires — the configuration where blocking must cost
// nearly nothing.
// (The dense-core 1M preset itself needs ~a GB; this is its CI-sized proxy
// with the same saturation property.)
func denseWorld() (*dataset.Dataset, error) {
	denseOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.NumPersons = 2000
		cfg.Density = 100
		cfg.NumWindows = 32
		cfg.FeatureDim = 16
		denseDS, denseErr = dataset.Generate(cfg)
	})
	return denseDS, denseErr
}

// matchSSScaleBench times warm SS matches over a cached scale world. Unlike
// matchBenchN, the matcher is constructed outside the timed loop and warmed
// with one untimed Match: the store's posting windows materialise on first
// touch, and the resident-server shape (touch once, match many) is exactly
// the deployment the index exists for. numTargets ≤ 0 means
// universal matching. The mean E-stage time is reported as the "split_ms"
// metric — the stage the blocking index accelerates — next to the usual
// whole-match time/op.
func matchSSScaleBench(world func() (*dataset.Dataset, error), numTargets int, disable bool) func(b *testing.B) {
	return func(b *testing.B) {
		ds, err := world()
		if err != nil {
			b.Fatal(err)
		}
		targets := ds.AllEIDs()
		if numTargets > 0 {
			targets = ds.SampleEIDs(numTargets, rand.New(rand.NewSource(5)))
		}
		m, err := core.New(ds, core.Options{
			Algorithm:       core.AlgorithmSS,
			Mode:            core.ModeSerial,
			WorkFactor:      1,
			DisableBlocking: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		warm, err := m.Match(context.Background(), targets)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var splitNS int64
		for i := 0; i < b.N; i++ {
			rep, err := m.Match(context.Background(), targets)
			if err != nil {
				b.Fatal(err)
			}
			splitNS += rep.ETime.Nanoseconds()
			if rep.Fingerprint() != warm.Fingerprint() {
				b.Fatal("fingerprint drifted between warm and timed matches")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(splitNS)/float64(b.N)/1e6, "split_ms")
	}
}

// scaleOneShotTargets is the target-sample size of the two one-shot sparse
// rows below: the bench/ module's batch-sparse shape.
const scaleOneShotTargets = 2000

// matchSSSparseBench times core.New plus Match over the sparse world, the
// one-shot CLI shape where the warm rows above are the resident server's. The
// posting windows belong to the store (DESIGN.md §13), so the shape splits in
// two. freshStore false is "a new matcher over a touched store": an untimed
// match touches the shared world's windows first, and each timed one finds
// them warm — the bench/ module's batch-sparse operation. freshStore true
// re-Adds the same E/V pairs into a NewStore with the timer stopped, so every
// iteration's match is the first to touch its store and materialises each
// window its split reaches from nothing.
func matchSSSparseBench(freshStore bool) func(b *testing.B) {
	return func(b *testing.B) {
		ds, err := sparseWorld()
		if err != nil {
			b.Fatal(err)
		}
		targets := ds.SampleEIDs(scaleOneShotTargets, rand.New(rand.NewSource(5)))
		opts := core.Options{Algorithm: core.AlgorithmSS, Mode: core.ModeSerial, WorkFactor: 1}
		match := func(world *dataset.Dataset) *core.Report {
			m, err := core.New(world, opts)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := m.Match(context.Background(), targets)
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}
		if !freshStore {
			match(ds)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var splitNS, materialised int64
		for i := 0; i < b.N; i++ {
			world := ds
			if freshStore {
				b.StopTimer()
				fresh := *ds
				fresh.Store = scenario.NewStore(ds.Store.Layout())
				for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
					if _, err := fresh.Store.Add(ds.Store.E(id), ds.Store.V(id)); err != nil {
						b.Fatal(err)
					}
				}
				world = &fresh
				b.StartTimer()
			}
			rep := match(world)
			splitNS += rep.ETime.Nanoseconds()
			materialised += rep.BlockMaterialised
		}
		b.StopTimer()
		if (materialised > 0) != freshStore {
			b.Fatalf("freshStore=%t but the timed matches materialised %d windows", freshStore, materialised)
		}
		b.ReportMetric(float64(splitNS)/float64(b.N)/1e6, "split_ms")
	}
}

// streamReplayWorld is the world the stream benchmarks share: the dataset,
// its flattened observation log, and an engine config over a 20-target
// sample — so the unsharded, sharded, remote and checkpoint rows are
// directly comparable.
func streamReplayWorld(b *testing.B) (*dataset.Dataset, stream.Config, []stream.Observation) {
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 100
	cfg.Density = 10
	cfg.NumWindows = 12
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, obs, err := stream.EventsFromDataset(ds, 1_000, 5)
	if err != nil {
		b.Fatal(err)
	}
	return ds, stream.Config{
		Targets:    ds.SampleEIDs(20, rand.New(rand.NewSource(5))),
		WindowMS:   1_000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
		Seed:       5,
	}, obs
}

// streamReplayBench replays a flattened observation log through the
// incremental stream engine and finalizes — the end-to-end cost of the
// streaming path: event-time windowing, incremental split, early V stage,
// and the batch-equivalent verification run. The log is flattened once
// outside the timer; each iteration replays it through a fresh engine.
func streamReplayBench() func(b *testing.B) {
	return func(b *testing.B) {
		ds, scfg, obs := streamReplayWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := stream.NewEngine(scfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range obs {
				if _, err := e.Ingest(o); err != nil {
					b.Fatal(err)
				}
			}
			rep, err := e.Finalize(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(e.Resolutions())), "resolutions")
			b.ReportMetric(rep.Accuracy(ds.TruthVID)*100, "acc%")
		}
	}
}

// checkpointBench prices the checkpoint codec on the StreamReplay world: the
// log is replayed into an engine that is not flushed — closed scenarios and
// open buckets both — outside the timer, and each iteration either encodes
// its image into a reused buffer (Engine.Checkpoint) or rebuilds an engine
// from it (stream.Restore, split replay included). checkpoint_bytes reports
// the image size.
func checkpointBench(restore bool) func(b *testing.B) {
	return func(b *testing.B) {
		_, scfg, obs := streamReplayWorld(b)
		e, err := stream.NewEngine(scfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range obs {
			if _, err := e.Ingest(o); err != nil {
				b.Fatal(err)
			}
		}
		var image bytes.Buffer
		if err := e.Checkpoint(&image); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if restore {
				if _, err := stream.Restore(scfg, bytes.NewReader(image.Bytes())); err != nil {
					b.Fatal(err)
				}
				continue
			}
			image.Reset()
			if err := e.Checkpoint(&image); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(image.Len()), "checkpoint_bytes")
	}
}

// streamReplayShardsBench replays the log through an N-shard router, timing
// ingest through Flush. Finalize — the constant-work batch verification run,
// identical at every shard count — stays outside the timer, so the measured
// throughput isolates exactly what sharding parallelizes: per-shard windowing
// and seal-time feature extraction.
func streamReplayShardsBench(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		_, scfg, obs := streamReplayWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := stream.NewRouter(stream.RouterConfig{Config: scfg, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range obs {
				if _, err := r.Ingest(o); err != nil {
					b.Fatal(err)
				}
			}
			if err := r.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(r.Resolutions())), "resolutions")
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func randomUnit(rng *rand.Rand, dim int) feature.Vector {
	v := make(feature.Vector, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v.Normalize()
}

// maxSimBench times the V-stage kernel on one (representative, scenario) pair
// at paper density — 60 isotropic rows of dim 64 — in the two situations a
// match mixes: a candidate the scenario sights, seeded with its own row as
// vfilter.Match seeds it, and one it does not, where the bound stays loose.
func maxSimBench(present bool) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		const own = 37
		vs := make([]feature.Vector, 60)
		for i := range vs {
			vs[i] = randomUnit(rng, 64)
		}
		m, err := feature.MatrixFrom(vs)
		if err != nil {
			b.Fatal(err)
		}
		rep, seeds := randomUnit(rng, 64), []int32(nil)
		if present {
			rep, seeds = feature.Perturb(vs[own], 0.02, rng), []int32{own}
		}
		out := make([]float64, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feature.MaxSimBatch(rep, m, seeds, out)
		}
	}
}

// atProcs runs bench with GOMAXPROCS set to n: the rule-out loop
// (vfilter.MatchInOrder) takes its worker count from it. On a one-CPU host
// the P2 rows price the second scorer, not a speed-up.
func atProcs(n int, bench func(b *testing.B)) func(b *testing.B) {
	return func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
		bench(b)
	}
}

func benchmarks() []benchmark {
	return []benchmark{
		{"MatchSSSerial", matchBench(core.AlgorithmSS, core.ModeSerial)},
		{"MatchSSSerialP2", atProcs(2, matchBench(core.AlgorithmSS, core.ModeSerial))},
		{"MatchSSParallel", matchBench(core.AlgorithmSS, core.ModeParallel)},
		{"MatchSSSpill", matchSSSpillBench()},
		{"MatchEDPSerial", matchBench(core.AlgorithmEDP, core.ModeSerial)},
		{"MatchSSBlockedSparse", matchSSScaleBench(sparseWorld, scaleSparseTargets, false)},
		{"MatchSSBlockedSparseExhaustive", matchSSScaleBench(sparseWorld, scaleSparseTargets, true)},
		{"MatchSSSparseFreshStore", matchSSSparseBench(true)},
		{"MatchSSSparseNewMatcher", matchSSSparseBench(false)},
		{"MatchSSBlockedDense", matchSSScaleBench(denseWorld, 0, false)},
		{"MatchSSBlockedDenseExhaustive", matchSSScaleBench(denseWorld, 0, true)},
		{"StreamReplay", streamReplayBench()},
		{"StreamReplayP2", atProcs(2, streamReplayBench())},
		{"StreamReplayShards1", streamReplayShardsBench(1)},
		{"StreamReplayShards4", streamReplayShardsBench(4)},
		{"StreamReplayRemoteShards1", streamReplayRemoteShardsBench(1)},
		{"StreamReplayRemoteShards2", streamReplayRemoteShardsBench(2)},
		{"StreamReplayRemoteShards4", streamReplayRemoteShardsBench(4)},
		{"ShardRPCSerialize", shardRPCSerializeBench()},
		{"CheckpointEncode", checkpointBench(false)},
		{"CheckpointRestore", checkpointBench(true)},
		{"Sim", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := randomUnit(rng, 64), randomUnit(rng, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := feature.Sim(x, y); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"MaxSimPresent", maxSimBench(true)},
		{"MaxSimAbsent", maxSimBench(false)},
		{"MeanAccum", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vs := make([]feature.Vector, 8)
			for i := range vs {
				vs[i] = randomUnit(rng, 64)
			}
			var acc feature.MeanAccum
			dst := make(feature.Vector, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Reset(64)
				for _, v := range vs {
					acc.Add(v)
				}
				acc.MeanInto(dst)
			}
		}},
		{"Extract", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			patch := feature.EncodePatch(randomUnit(rng, 64), 1, rng)
			ex := feature.Extractor{Dim: 64, WorkFactor: 4}
			dst := make(feature.Vector, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ex.ExtractInto(patch, dst); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// Run executes every suite benchmark and returns the populated File.
// Progress lines go to logw when non-nil.
func Run(logw io.Writer) (*File, error) {
	f := &File{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, bm := range benchmarks() {
		if logw != nil {
			fmt.Fprintf(logw, "bench %s...\n", bm.name)
		}
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("benchsuite: %s did not run (benchmark failed)", bm.name)
		}
		res := Result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		f.Results = append(f.Results, res)
		if logw != nil {
			fmt.Fprintf(logw, "bench %s: %d iters, %.0f ns/op, %d allocs/op\n",
				bm.name, res.Iterations, res.NsPerOp, res.AllocsPerOp)
		}
	}
	sort.Slice(f.Results, func(i, j int) bool { return f.Results[i].Name < f.Results[j].Name })
	return f, nil
}

// WriteJSON marshals the file with stable formatting.
func (f *File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON parses a baseline file.
func ReadJSON(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchsuite: parse baseline: %w", err)
	}
	return &f, nil
}

// Lookup returns the named result, or false.
func (f *File) Lookup(name string) (Result, bool) {
	for _, r := range f.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}
