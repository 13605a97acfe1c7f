// Package feature provides the visual-appearance substrate that substitutes
// for the paper's CUHK02 imagery and computer-vision pipeline. Each person
// has a base appearance vector; detections carry synthetic pixel patches
// derived from an observed (noisy) vector; "feature extraction" decodes a
// patch back into a vector at a deliberate, configurable compute cost, so the
// V stage dominates processing time exactly as the paper reports; and
// similarity follows the paper's Equation 1, sim = 1 - dist.
package feature

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrDimMismatch reports vectors of different dimensionality.
var ErrDimMismatch = errors.New("feature: dimension mismatch")

// Vector is an appearance feature vector. Gallery vectors are unit-norm, so
// the normalized distance ||a-b||/2 lies in [0, 1].
type Vector []float64

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize scales v in place to unit norm and returns it. A zero vector is
// left unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}

// Dist returns the normalized vector distance between two unit vectors,
// ||a-b||/2 ∈ [0, 1] (the dist(f1, f2) of the paper's Equation 1).
func Dist(a, b Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(a), len(b))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	d := math.Sqrt(s) / 2
	if d > 1 {
		d = 1
	}
	return d, nil
}

// Sim returns the similarity of two VID feature vectors per the paper's
// Equation 1: sim(v1, v2) = 1 - dist(f1, f2).
func Sim(a, b Vector) (float64, error) {
	d, err := Dist(a, b)
	if err != nil {
		return 0, err
	}
	return 1 - d, nil
}

// randomUnit draws a uniformly random unit vector of the given dimension.
func randomUnit(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v.Normalize()
}

// Perturb returns a copy of v with per-dimension Gaussian noise of the given
// standard deviation added and renormalized, modeling appearance variation
// between observations of the same person (different view, pose, lighting).
func Perturb(v Vector, sigma float64, rng *rand.Rand) Vector {
	return perturbInto(make(Vector, len(v)), v, sigma, rng)
}

// perturbInto is Perturb written into out, which must be len(v) long.
func perturbInto(out, v Vector, sigma float64, rng *rand.Rand) Vector {
	copy(out, v)
	if sigma <= 0 {
		return out
	}
	for i := range out {
		out[i] += rng.NormFloat64() * sigma
	}
	return out.Normalize()
}

// Mean returns the renormalized mean of the given unit vectors; vfilter uses
// it to build a representative feature for a VID observed in several
// scenarios. It returns an error if the slice is empty or dimensions differ.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("feature: mean of no vectors")
	}
	out := make(Vector, len(vs[0]))
	for _, v := range vs {
		if len(v) != len(out) {
			return nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(v), len(out))
		}
		for i, x := range v {
			out[i] += x
		}
	}
	inv := 1 / float64(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out.Normalize(), nil
}
