package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refMaxSim is the pre-kernel reference: fold Sim over the rows with a
// strict greater-than max starting at 0, exactly as vfilter.Match did.
func refMaxSim(t *testing.T, rep Vector, rows []Vector) float64 {
	t.Helper()
	best := 0.0
	for _, r := range rows {
		s, err := Sim(rep, r)
		if err != nil {
			t.Fatal(err)
		}
		if s > best {
			best = s
		}
	}
	return best
}

// matrixOf packs rows into a matrix; no rows make an empty matrix of dim.
func matrixOf(t *testing.T, rows []Vector, dim int) *Matrix {
	t.Helper()
	if len(rows) == 0 {
		m, err := NewMatrix(dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m, err := MatrixFrom(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomRows draws rows at a mix of scales so the sweep covers near-duplicate
// vectors, ordinary unit vectors, and far vectors whose normalized distance
// clamps at 1 (similarity 0).
func randomRows(rng *rand.Rand, dim, n int) []Vector {
	rows := make([]Vector, n)
	for i := range rows {
		v := make(Vector, dim)
		scale := 1.0
		switch rng.Intn(4) {
		case 1:
			scale = 1e-9
		case 2:
			scale = 3 // pushes ||a-b|| past the clamp
		}
		for j := range v {
			v[j] = rng.NormFloat64() * scale
		}
		rows[i] = v
	}
	return rows
}

// TestMaxSimBitIdentical: the batched kernel must agree with the per-pair
// Sim fold to the bit, across dimensions that do and do not divide by the
// unroll factor, including empty matrices and clamped (far) rows.
func TestMaxSimBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(70) // covers non-multiples of 4
		rows := randomRows(rng, dim, rng.Intn(12))
		rep := randomRows(rng, dim, 1)[0]
		got := MaxSim(rep, matrixOf(t, rows, dim))
		want := refMaxSim(t, rep, rows)
		return math.Float64bits(got) == math.Float64bits(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// batchAgainstRef runs MaxSimBatch over the reps with the given seeds and
// reports the first representative whose result differs in any bit from the
// reference fold.
func batchAgainstRef(t *testing.T, reps, rows []Vector, dim int, seeds []int32) (int, bool) {
	t.Helper()
	slab := make([]float64, 0, len(reps)*dim)
	for _, r := range reps {
		slab = append(slab, r...)
	}
	out := make([]float64, len(reps))
	MaxSimBatch(slab, matrixOf(t, rows, dim), seeds, out)
	for r, rep := range reps {
		if math.Float64bits(out[r]) != math.Float64bits(refMaxSim(t, rep, rows)) {
			return r, false
		}
	}
	return 0, true
}

// TestMaxSimBatchBitIdentical holds the batched kernel to the reference fold
// over everything that shapes its control flow: dimensions below and off the
// chunk width, row counts around the tile width (so the seed splits the scan
// into ranges with every remainder), and per-representative seeds that are
// absent, the nearest row, some other row, or one of several identical rows.
func TestMaxSimBatchBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(9) // dim < 4 and dim % 4 != 0 included
		if rng.Intn(3) == 0 {
			dim = 60 + rng.Intn(9)
		}
		rows := randomRows(rng, dim, rng.Intn(10))
		for i := range rows {
			if i > 0 && rng.Intn(4) == 0 {
				rows[i] = rows[rng.Intn(i)] // duplicated rows: exact ties
			}
		}
		reps := randomRows(rng, dim, 1+rng.Intn(6))
		for i := range reps {
			if len(rows) > 0 && rng.Intn(2) == 0 {
				// A sighted candidate: close to, or exactly, one of the rows.
				reps[i] = rows[rng.Intn(len(rows))].Clone()
				if rng.Intn(2) == 0 {
					reps[i][rng.Intn(dim)] += 1e-3
				}
			}
		}
		var seeds []int32
		if rng.Intn(4) > 0 {
			seeds = make([]int32, len(reps))
			for i := range seeds {
				seeds[i] = -1
				if len(rows) > 0 && rng.Intn(3) > 0 {
					seeds[i] = int32(rng.Intn(len(rows)))
				}
			}
		}
		r, ok := batchAgainstRef(t, reps, rows, dim, seeds)
		if !ok {
			t.Logf("seed %d: dim %d, %d rows, seeds %v: rep %d differs", seed, dim, len(rows), seeds, r)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMaxSimBatchAllClamped: when every row is past the clamp no pair ever
// lowers the bound, seeded or not, and the result is the reference's 0.
func TestMaxSimBatchAllClamped(t *testing.T) {
	rows := []Vector{{9, 9, 9}, {-7, 5, 3}, {4, -8, 1}, {6, 6, -6}, {-9, 0, 9}}
	reps := []Vector{{1, 0, 0}, {0, 1, 0}}
	if ref := refMaxSim(t, reps[0], rows); ref != 0 {
		t.Fatalf("reference over clamped rows = %v, want 0", ref)
	}
	for _, seeds := range [][]int32{nil, {-1, -1}, {0, 4}, {2, 2}} {
		if r, ok := batchAgainstRef(t, reps, rows, 3, seeds); !ok {
			t.Errorf("seeds %v: rep %d differs from the reference", seeds, r)
		}
	}
}

// TestMaxSimBatchContractPanics: slab, seed-slice and seed-index violations
// are programming errors and must not read out of bounds silently.
func TestMaxSimBatchContractPanics(t *testing.T) {
	m, err := MatrixFrom([]Vector{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"slab length":  func() { MaxSimBatch(make([]float64, 5), m, nil, make([]float64, 2)) },
		"seeds length": func() { MaxSimBatch(make([]float64, 6), m, []int32{0}, make([]float64, 2)) },
		"seed row":     func() { MaxSimBatch(make([]float64, 3), m, []int32{2}, make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMaxSimEarlyExitTies pins deterministic tie handling: duplicate rows and
// rows straddling the clamp boundary must yield the same value as the
// reference fold regardless of which row the kernel settles on.
func TestMaxSimEarlyExitTies(t *testing.T) {
	rep := Vector{1, 0, 0, 0}
	dup := Vector{0, 1, 0, 0}
	rows := []Vector{dup, dup, {0, -1, 0, 0}, {3, 3, 3, 3}, rep}
	m, err := MatrixFrom(rows)
	if err != nil {
		t.Fatal(err)
	}
	got := MaxSim(rep, m)
	want := refMaxSim(t, rep, rows)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("MaxSim = %v, want %v", got, want)
	}
	if got != 1 {
		t.Errorf("MaxSim with rep among rows = %v, want 1", got)
	}
}

func TestMaxSimAllClampedRowsIsZero(t *testing.T) {
	rep := Vector{1, 0, 0}
	rows := []Vector{{9, 9, 9}, {-7, 5, 3}}
	m, err := MatrixFrom(rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxSim(rep, m); got != 0 {
		t.Errorf("MaxSim over clamped rows = %v, want 0", got)
	}
}

func TestMaxSimDimMismatchPanics(t *testing.T) {
	m, err := MatrixFrom([]Vector{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on rep/matrix dim mismatch")
		}
	}()
	MaxSim(Vector{1, 2}, m)
}

func TestMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 3); err == nil {
		t.Error("want error for dim 0")
	}
	if _, err := NewMatrix(4, -1); err == nil {
		t.Error("want error for negative rows")
	}
	if _, err := MatrixFrom(nil); err == nil {
		t.Error("want error for no vectors")
	}
	if _, err := MatrixFrom([]Vector{{1, 2}, {1, 2, 3}}); err == nil {
		t.Error("want error for ragged vectors")
	}
}

func TestMatrixRowRoundTrip(t *testing.T) {
	rows := []Vector{{1, 2, 3}, {4, 5, 6}}
	m, err := MatrixFrom(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 3 || m.Rows() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Dim())
	}
	for i, want := range rows {
		got := m.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("Row(%d)[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

// TestMeanAccumBitIdentical: streaming accumulation must reproduce Mean's
// output exactly for the same vector sequence.
func TestMeanAccumBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(60)
		n := 1 + rng.Intn(10)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = randomUnit(rng, dim)
		}
		want, err := Mean(vs)
		if err != nil {
			return false
		}
		var acc MeanAccum
		acc.Reset(dim)
		for _, v := range vs {
			acc.Add(v)
		}
		if acc.Count() != n {
			return false
		}
		got := acc.MeanInto(make(Vector, dim))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanAccumReuseAcrossReset(t *testing.T) {
	var acc MeanAccum
	acc.Reset(3)
	acc.Add(Vector{1, 0, 0})
	acc.Reset(2) // shrink: must clear stale sums
	acc.Add(Vector{0, 1})
	got := acc.MeanInto(make(Vector, 2))
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("mean after reuse = %v, want [0 1]", got)
	}
}

func TestMeanAccumPanics(t *testing.T) {
	// A fresh accumulator per case: the cases run in map order, and the last
	// one leaves a vector behind that would keep "empty mean" from panicking.
	for name, fn := range map[string]func(acc *MeanAccum){
		"dim mismatch on Add":  func(acc *MeanAccum) { acc.Add(Vector{1, 2}) },
		"empty mean":           func(acc *MeanAccum) { acc.MeanInto(make(Vector, 3)) },
		"dst mismatch on Mean": func(acc *MeanAccum) { acc.Add(Vector{1, 2, 3}); acc.MeanInto(make(Vector, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			var acc MeanAccum
			acc.Reset(3)
			fn(&acc)
		}()
	}
}

// TestExtractIntoBitIdentical: the allocation-free extraction must decode
// exactly the vector Extract does, work factor included.
func TestExtractIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, wf := range []int{0, 2} {
		e := Extractor{Dim: 24, WorkFactor: wf}
		for trial := 0; trial < 20; trial++ {
			p := EncodePatch(randomUnit(rng, 24), 1.5, rng)
			want, err := e.Extract(p)
			if err != nil {
				t.Fatal(err)
			}
			got := make(Vector, 24)
			// Pre-fill with garbage: ExtractInto must fully overwrite dst.
			for i := range got {
				got[i] = math.Inf(1)
			}
			if err := e.ExtractInto(p, got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("wf=%d component %d: %v vs %v", wf, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkMaxSimMatrix measures the kernel in the two situations a match
// puts it in, over one paper-density scenario (60 isotropic rows of dim 64).
// present: the representative is a noisy copy of one row — a candidate the
// scenario sights — scored with that row as the seed, as vfilter.Match does,
// and without it. absent: the representative is unrelated to every row, so
// the bound stays loose and most pairs run most of their length. ns/op is per
// (representative, scenario) pair; a match pays a mix of the two.
func BenchmarkMaxSimMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dim, rows, own = 64, 60, 37
	vs := make([]Vector, rows)
	for i := range vs {
		vs[i] = randomUnit(rng, dim)
	}
	m, err := MatrixFrom(vs)
	if err != nil {
		b.Fatal(err)
	}
	present := Perturb(vs[own], 0.02, rng)
	absent := randomUnit(rng, dim)
	out := make([]float64, 1)
	for _, bc := range []struct {
		name  string
		rep   Vector
		seeds []int32
	}{
		{"present/seed", present, []int32{own}},
		{"present/noseed", present, nil},
		{"absent", absent, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MaxSimBatch(bc.rep, m, bc.seeds, out)
			}
		})
	}
}

// BenchmarkMean covers both the slice-based Mean and the streaming MeanAccum
// replacement used by the V-stage hot path.
func BenchmarkMean(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dim, n = 64, 8
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = randomUnit(rng, dim)
	}
	b.Run("slices", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Mean(vs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("accum", func(b *testing.B) {
		var acc MeanAccum
		dst := make(Vector, dim)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc.Reset(dim)
			for _, v := range vs {
				acc.Add(v)
			}
			acc.MeanInto(dst)
		}
	})
}

func TestExtractIntoValidation(t *testing.T) {
	e := Extractor{Dim: 8}
	good := EncodePatch(Vector{1, 0, 0, 0, 0, 0, 0, 0}, 0, rand.New(rand.NewSource(1)))
	if err := e.ExtractInto(good, make(Vector, 4)); err == nil {
		t.Error("want error for dst dim mismatch")
	}
	if err := e.ExtractInto(Patch{W: 2, H: 2, Pix: []byte{1}}, make(Vector, 8)); err == nil {
		t.Error("want error for malformed patch")
	}
	if err := (Extractor{Dim: 1}).ExtractInto(good, make(Vector, 1)); err == nil {
		t.Error("want error for tiny dim")
	}
}
