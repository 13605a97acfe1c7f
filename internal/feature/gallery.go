package feature

import (
	"fmt"
	"math/rand"
)

// Gallery holds the base appearance vector of every person in the synthetic
// world, standing in for the CUHK02 image database the paper samples VIDs
// from. Base vectors are independent uniform unit vectors, so for realistic
// dimensions (64+) cross-person similarity concentrates well below
// same-person similarity.
type Gallery struct {
	dim  int
	base []Vector
}

// NewGallery draws n base appearance vectors of the given dimension from rng.
func NewGallery(rng *rand.Rand, n, dim int) (*Gallery, error) {
	if n < 1 || dim < 2 {
		return nil, fmt.Errorf("feature: invalid gallery size n=%d dim=%d", n, dim)
	}
	g := &Gallery{dim: dim, base: make([]Vector, n)}
	for i := range g.base {
		g.base[i] = randomUnit(rng, dim)
	}
	return g, nil
}

// Len returns the number of persons in the gallery.
func (g *Gallery) Len() int { return len(g.base) }

// Dim returns the feature dimensionality.
func (g *Gallery) Dim() int { return g.dim }

// Base returns the ground-truth appearance vector of person i. The returned
// slice must not be modified.
func (g *Gallery) Base(i int) Vector { return g.base[i] }

// Observe returns one noisy appearance observation of person i, modeling a
// single camera capture with per-observation appearance variation sigma.
func (g *Gallery) Observe(i int, sigma float64, rng *rand.Rand) Vector {
	return Perturb(g.base[i], sigma, rng)
}

// ObserveInto is Observe written into dst, which must be Dim long, and
// returned: the same draws and the same values, without an allocation.
func (g *Gallery) ObserveInto(dst Vector, i int, sigma float64, rng *rand.Rand) Vector {
	return perturbInto(dst, g.base[i], sigma, rng)
}
