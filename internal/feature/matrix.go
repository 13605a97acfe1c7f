package feature

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major collection of equal-dimension feature vectors:
// one contiguous []float64 instead of a slice of slices. It is the storage
// the V-stage kernels operate on — dimensions are validated once, at
// construction, so the per-pair inner loops carry no error returns and walk
// memory sequentially.
type Matrix struct {
	dim  int
	data []float64
}

// NewMatrix allocates a zero matrix of the given shape. The rows are filled
// in place through Row (e.g. by Extractor.ExtractInto).
func NewMatrix(dim, rows int) (*Matrix, error) {
	if dim < 1 {
		return nil, fmt.Errorf("feature: matrix dim %d", dim)
	}
	if rows < 0 {
		return nil, fmt.Errorf("feature: matrix rows %d", rows)
	}
	return &Matrix{dim: dim, data: make([]float64, dim*rows)}, nil
}

// MatrixFrom copies the given vectors into a new matrix, validating once that
// every vector has the same dimension.
func MatrixFrom(vs []Vector) (*Matrix, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("feature: matrix from no vectors")
	}
	dim := len(vs[0])
	m, err := NewMatrix(dim, len(vs))
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		if len(v) != dim {
			return nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(v), dim)
		}
		copy(m.data[i*dim:(i+1)*dim], v)
	}
	return m, nil
}

// MatrixOf adopts data as the row-major storage of a matrix of dim-wide rows
// — no copy: the matrix and the caller share the slice, so the caller must
// not write to it afterwards. It is how a decoded float block becomes a
// matrix (internal/stream's wire, checkpoint and spill codec).
func MatrixOf(dim int, data []float64) (*Matrix, error) {
	if dim < 1 {
		return nil, fmt.Errorf("feature: matrix dim %d", dim)
	}
	if len(data)%dim != 0 {
		return nil, fmt.Errorf("feature: %d values do not fill rows of dim %d", len(data), dim)
	}
	return &Matrix{dim: dim, data: data}, nil
}

// Data returns the matrix's row-major storage (not a copy): Rows()*Dim()
// values, row i at [i*Dim(), (i+1)*Dim()).
func (m *Matrix) Data() []float64 { return m.data }

// Dim returns the vector dimensionality.
func (m *Matrix) Dim() int { return m.dim }

// Rows returns the number of vectors stored.
func (m *Matrix) Rows() int { return len(m.data) / m.dim }

// Row returns row i as a Vector view into the matrix storage (not a copy).
func (m *Matrix) Row(i int) Vector {
	return Vector(m.data[i*m.dim : (i+1)*m.dim])
}

// maxSimClampSq is the squared vector distance at which the normalized
// distance ||a-b||/2 clamps to 1 and the similarity bottoms out at 0.
const maxSimClampSq = 4.0

// MaxSim returns max over the matrix rows of Sim(rep, row) — the
// max_d sim(v, d) term of the paper's Equation 1. It is MaxSimBatch for one
// representative and no seed. An empty matrix yields 0, like a max over no
// similarities.
func MaxSim(rep Vector, m *Matrix) float64 {
	var out [1]float64
	MaxSimBatch(rep, m, nil, out[:])
	return out[0]
}

// MaxSimBatch is the V-stage kernel: for every representative r of the
// row-major slab reps (len(out) vectors of m.Dim() components) it writes
// out[r] = max over the matrix rows of Sim(rep_r, row).
//
// Every result is bit-identical to folding Sim over the rows with a
// "greater-than" max. Each (rep, row) pair has its own accumulator, summed in
// index order, so a pair that runs to completion holds exactly the squared
// distance Dist computes; sqrt is monotone and correctly rounded, so the
// smallest squared distance belongs to the most similar row; and a minimum
// over a set does not depend on the order the set is visited in. Pairs are
// abandoned only once their partial sum — which can only grow — has reached
// a bound that some completed pair already attained, so an abandoned row
// could not have lowered the minimum; a bound that is stale (higher than the
// best so far) only delays abandonment.
//
// Rows are visited in tiles of four pairs whose accumulators advance
// together, so four floating-point add chains overlap instead of one
// serialising the loop; a tile is dropped as soon as all four have reached
// the bound.
//
// seeds is nil or holds one entry per representative: a row index evaluated
// in full before any tile, or a negative value for none. Seeding with the
// row most likely to be nearest — in vfilter, the candidate's own detection
// in the scenario — sets the bound so that almost every other row leaves in
// its first tile step. Any row is a valid seed; it only changes the cost.
//
// Kernel contract: len(reps) == len(out)*m.Dim(), seeds is nil or
// len(seeds) == len(out), and every non-negative seed is a row of m.
// Dimensions are validated when the matrix and representatives are built, so
// a violation here is a programming error and panics.
func MaxSimBatch(reps []float64, m *Matrix, seeds []int32, out []float64) {
	dim := m.dim
	if len(reps) != len(out)*dim {
		panic(fmt.Sprintf("feature: MaxSimBatch %d rep components for %d reps of dim %d", len(reps), len(out), dim))
	}
	if seeds != nil && len(seeds) != len(out) {
		panic(fmt.Sprintf("feature: MaxSimBatch %d seeds for %d reps", len(seeds), len(out)))
	}
	rows := m.Rows()
	for r := range out {
		rep := reps[r*dim : (r+1)*dim : (r+1)*dim]
		minSq := maxSimClampSq
		// The seed row splits the scan into the rows before and after it;
		// without a seed the first range is the whole matrix.
		seed := rows
		if seeds != nil && seeds[r] >= 0 {
			seed = int(seeds[r])
			var s float64
			for i, x := range m.data[seed*dim : (seed+1)*dim] {
				d := rep[i] - x
				s += d * d
			}
			if s < minSq {
				minSq = s
			}
		}
		minSq = minSqRows(rep, m.data, 0, seed, minSq)
		minSq = minSqRows(rep, m.data, seed+1, rows, minSq)
		d := math.Sqrt(minSq) / 2
		if d > 1 {
			d = 1
		}
		out[r] = 1 - d
	}
}

// minSqRows returns the smaller of bound and the least squared distance from
// rep to rows [lo, hi) of the row-major data, visiting the rows in tiles of
// four (see MaxSimBatch). A short last tile repeats its final row: the
// repeats are redundant work on an otherwise idle add chain, and a repeated
// element cannot change a minimum.
func minSqRows(rep, data []float64, lo, hi int, bound float64) float64 {
	dim := len(rep)
	last := hi - 1
tiles:
	for j := lo; j < hi; j += 4 {
		o0, o1, o2, o3 := j*dim, min(j+1, last)*dim, min(j+2, last)*dim, min(j+3, last)*dim
		r0 := data[o0 : o0+dim : o0+dim]
		r1 := data[o1 : o1+dim : o1+dim]
		r2 := data[o2 : o2+dim : o2+dim]
		r3 := data[o3 : o3+dim : o3+dim]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= dim; i += 4 {
			for k := i; k < i+4; k++ {
				x := rep[k]
				d0 := x - r0[k]
				s0 += d0 * d0
				d1 := x - r1[k]
				s1 += d1 * d1
				d2 := x - r2[k]
				s2 += d2 * d2
				d3 := x - r3[k]
				s3 += d3 * d3
			}
			if s0 >= bound && s1 >= bound && s2 >= bound && s3 >= bound {
				continue tiles // the sums only grow; no row of this tile can win
			}
		}
		for ; i < dim; i++ {
			x := rep[i]
			d0 := x - r0[i]
			s0 += d0 * d0
			d1 := x - r1[i]
			s1 += d1 * d1
			d2 := x - r2[i]
			s2 += d2 * d2
			d3 := x - r3[i]
			s3 += d3 * d3
		}
		// Comparisons, not min(): a NaN distance must lose, as it does in
		// the Sim fold.
		if s0 < bound {
			bound = s0
		}
		if s1 < bound {
			bound = s1
		}
		if s2 < bound {
			bound = s2
		}
		if s3 < bound {
			bound = s3
		}
	}
	return bound
}

// MeanAccum is an allocation-free running-mean accumulator over unit
// vectors: the streaming replacement for collecting every vector and calling
// Mean. Add vectors in order, then MeanInto produces exactly the vector
// Mean would have returned for the same sequence (same additions, same
// scaling, same normalization).
type MeanAccum struct {
	sum []float64
	n   int
}

// Reset prepares the accumulator for a new sequence of dim-dimensional
// vectors, reusing its buffer when possible.
func (a *MeanAccum) Reset(dim int) {
	if cap(a.sum) < dim {
		a.sum = make([]float64, dim)
	} else {
		a.sum = a.sum[:dim]
		clear(a.sum)
	}
	a.n = 0
}

// Add accumulates one vector. Kernel contract: len(v) must equal the Reset
// dimension; a mismatch is a programming error and panics.
func (a *MeanAccum) Add(v Vector) {
	if len(v) != len(a.sum) {
		panic(fmt.Sprintf("feature: MeanAccum dim %d vs %d", len(v), len(a.sum)))
	}
	for i, x := range v {
		a.sum[i] += x
	}
	a.n++
}

// Count returns how many vectors have been accumulated since Reset.
func (a *MeanAccum) Count() int { return a.n }

// MeanInto writes the renormalized mean into dst (len must equal the Reset
// dimension) and returns it. It panics when no vectors were accumulated,
// mirroring Mean's error on an empty slice.
func (a *MeanAccum) MeanInto(dst Vector) Vector {
	if a.n == 0 {
		panic("feature: MeanAccum mean of no vectors")
	}
	if len(dst) != len(a.sum) {
		panic(fmt.Sprintf("feature: MeanAccum dst dim %d vs %d", len(dst), len(a.sum)))
	}
	inv := 1 / float64(a.n)
	for i, s := range a.sum {
		dst[i] = s * inv
	}
	return dst.Normalize()
}
