package feature

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Patch geometry follows the pedestrian crops typical of re-identification
// datasets such as CUHK02 (tall, narrow bounding boxes).
const (
	// PatchW and PatchH are the synthetic patch dimensions in pixels. They
	// keep the tall, narrow aspect of re-identification crops while staying
	// small enough that a full dataset (one detection per person per window)
	// fits comfortably in memory; Extractor.WorkFactor scales the per-patch
	// compute up to realistic video-processing cost.
	PatchW = 16
	PatchH = 40
	// encodeScale maps feature-vector components to pixel offsets around the
	// mid gray level of 128.
	encodeScale = 256.0
)

// ErrBadPatch reports a malformed patch.
var ErrBadPatch = errors.New("feature: malformed patch")

// Patch is a synthetic grayscale pedestrian crop. It is the "raw V data" of
// a detection: matching never reads a detection's feature vector directly —
// it must first pay the extraction cost to recover it from the patch, just
// as the paper's V stage must run detection and feature extraction on video.
type Patch struct {
	W   int    `json:"w"`
	H   int    `json:"h"`
	Pix []byte `json:"pix"`
}

// Validate reports whether the patch is a W×H block of pixels with both
// dimensions positive. It divides instead of multiplying, so no W·H that
// overflows to len(Pix) passes.
func (p Patch) Validate() error {
	if p.W <= 0 || p.H <= 0 || len(p.Pix)%p.W != 0 || len(p.Pix)/p.W != p.H {
		return fmt.Errorf("%w: %dx%d with %d pixels", ErrBadPatch, p.W, p.H, len(p.Pix))
	}
	return nil
}

// PatchPixels is a patch's pixel count, and so the draws a noisy one takes.
const PatchPixels = PatchW * PatchH

// EncodePatch renders an observed appearance vector into a synthetic patch.
// Each pixel carries one (repeated, noisy) quantized vector component, so
// extraction can average the repeats back out. pixelNoise is the per-pixel
// Gaussian noise in gray levels (camera sensor noise). It is DrawPatchNoise,
// the only part that must run where rng is, then EncodePixels.
func EncodePatch(v Vector, pixelNoise float64, rng *rand.Rand) Patch {
	p := Patch{W: PatchW, H: PatchH, Pix: make([]byte, PatchPixels)}
	var noise [PatchPixels]float64
	if pixelNoise > 0 {
		DrawPatchNoise(noise[:], rng)
	}
	EncodePixels(p.Pix, v, noise[:], pixelNoise)
	return p
}

// DrawPatchNoise fills noise, PatchPixels long, with one patch's standard
// normal draws from rng, in pixel order.
func DrawPatchNoise(noise []float64, rng *rand.Rand) {
	for k := range noise {
		noise[k] = rng.NormFloat64()
	}
}

// EncodePixels writes v's patch into pix, PatchPixels long: pixel lo+d
// carries component d plus, when pixelNoise > 0, noise[lo+d]·pixelNoise gray
// levels. It draws no random number, so it may run on any goroutine. It
// panics if v is empty, as no pixel can carry a component of it.
func EncodePixels(pix []byte, v Vector, noise []float64, pixelNoise float64) {
	if !(pixelNoise > 0) {
		pixelNoise = 0 // ≤ 0 or NaN: nothing was drawn, so add nothing
	}
	dim := len(v)
	if dim == 0 {
		panic("feature: EncodePixels of an empty vector")
	}
	for lo := 0; lo < len(pix); lo += dim {
		row, n := pix[lo:min(lo+dim, len(pix))], noise[lo:]
		for d := range row {
			row[d] = clampByte((128 + v[d]*encodeScale) + n[d]*pixelNoise)
		}
	}
}

// clampByte rounds v half away from zero onto [0, 255]. On that range
// v−int(v) is exact, so the rounding equals math.Round's.
func clampByte(v float64) byte {
	switch {
	case v < 0:
		return 0
	case v > 255:
		return 255
	}
	i := int(v)
	if v-float64(i) >= 0.5 {
		i++
	}
	return byte(i)
}

// Extractor recovers feature vectors from patches. WorkFactor scales the
// deliberate per-patch compute so experiments can model the heavy
// detection + feature-extraction cost of real video processing; each unit of
// WorkFactor adds one full gradient-energy pass over the patch.
type Extractor struct {
	// Dim is the dimensionality of extracted vectors.
	Dim int
	// WorkFactor adds that many extra full passes over the patch pixels.
	WorkFactor int
}

// Extract decodes the appearance vector embedded in p. The returned vector
// is unit-norm. The computation deliberately touches every pixel
// (1 + WorkFactor) times.
func (e Extractor) Extract(p Patch) (Vector, error) {
	if e.Dim < 2 {
		return nil, fmt.Errorf("feature: extractor dim %d", e.Dim)
	}
	v := make(Vector, e.Dim)
	if err := e.ExtractInto(p, v); err != nil {
		return nil, err
	}
	return v, nil
}

// ExtractBuf is reusable working storage for extraction: one gradient
// buffer shared across any number of ExtractIntoBuf calls. The zero value is
// ready to use; callers processing a batch of patches hold one ExtractBuf
// for the whole batch instead of paying a pool round-trip per patch.
type ExtractBuf struct {
	grad []float64
}

// ExtractInto decodes the appearance vector embedded in p into dst, which
// must have length Dim — the allocation-free form of Extract (vfilter fills
// scenario feature matrices row by row with it). The decoded values are
// bit-identical to Extract's.
func (e Extractor) ExtractInto(p Patch, dst Vector) error {
	bufp := gradBufPool.Get().(*ExtractBuf)
	err := e.ExtractIntoBuf(p, dst, bufp)
	gradBufPool.Put(bufp)
	return err
}

// ExtractIntoBuf is ExtractInto with caller-owned working storage: buf's
// gradient buffer is reused across calls, so a batch of extractions pays for
// at most one buffer growth instead of a pool round-trip per patch. The
// decoded values are bit-identical to ExtractInto's.
func (e Extractor) ExtractIntoBuf(p Patch, dst Vector, buf *ExtractBuf) error {
	if e.Dim < 2 {
		return fmt.Errorf("feature: extractor dim %d", e.Dim)
	}
	if len(dst) != e.Dim {
		return fmt.Errorf("%w: dst dim %d vs extractor dim %d", ErrDimMismatch, len(dst), e.Dim)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// Component d is carried by pixels d, d+Dim, d+2·Dim, …: summing along
	// that stride visits the same pixels in the same ascending order as a
	// single pass over the patch, so the sums are bit-identical while the
	// inner loop avoids a modulo per pixel. Each component received
	// len(Pix)/Dim repeats, plus one for the first len(Pix)%Dim components.
	// The per-pixel addends float64(pix[k])−128 are integers and every
	// partial sum stays far below 2^53, so each floating-point addition in
	// the reference fold is exact — summing in integer arithmetic and
	// converting once yields the bit-identical value while the inner loop
	// pipelines as integer adds.
	pix := p.Pix
	q, r := len(pix)/e.Dim, len(pix)%e.Dim
	for d := range dst {
		var s int
		for k := d; k < len(pix); k += e.Dim {
			s += int(pix[k])
		}
		count := q
		if d < r {
			count++
		}
		if count > 0 {
			dst[d] = float64(s-128*count) / float64(count) / encodeScale
		} else {
			dst[d] = 0
		}
	}
	// Burn the configured extra work: gradient-energy passes standing in for
	// the descriptor pyramids of a real re-identification pipeline. The
	// result perturbs nothing (it is accumulated and discarded via a
	// negligible, deterministic epsilon) but the cost is real.
	if e.WorkFactor > 0 {
		energy := gradientEnergy(p, e.WorkFactor, buf)
		dst[0] += energy * 1e-18
	}
	dst.Normalize()
	return nil
}

// gradBufPool recycles the working storage behind ExtractInto so the
// convenience path stays allocation-free in steady state.
var gradBufPool = sync.Pool{New: func() any { return new(ExtractBuf) }}

// gradientEnergy runs `passes` full gradient-magnitude accumulation sweeps
// over the patch and returns the accumulated energy. The magnitudes are
// computed once (the sqrt per pixel pair) into the caller's buffer; every pass
// then sweeps the full buffer, accumulating into eight independent partial
// sums so the additions pipeline instead of forming one serial
// latency chain. Each pass still performs one addition per gradient — the
// work WorkFactor models — and the result is deterministic: the fixed
// eight-way association always produces the same energy. Its last bits can
// differ from a naive serial refold, which only perturbs the 1e-18 epsilon
// injection below; the conformance fingerprints in internal/core pin the
// observable behavior.
func gradientEnergy(p Patch, passes int, eb *ExtractBuf) float64 {
	if passes <= 0 {
		return 0
	}
	n := (p.H - 1) * (p.W - 1)
	if n <= 0 {
		return 0
	}
	buf := eb.grad
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	idx := 0
	for y := 0; y < p.H-1; y++ {
		cur := p.Pix[y*p.W : y*p.W+p.W]
		nxt := p.Pix[(y+1)*p.W : (y+1)*p.W+p.W]
		for x := 0; x < p.W-1; x++ {
			dx := int(cur[x+1]) - int(cur[x])
			dy := int(nxt[x]) - int(cur[x])
			buf[idx] = math.Sqrt(float64(dx*dx + dy*dy))
			idx++
		}
	}
	var acc float64
	for pass := 0; pass < passes; pass++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		i := 0
		for ; i+8 <= len(buf); i += 8 {
			a0 += buf[i]
			a1 += buf[i+1]
			a2 += buf[i+2]
			a3 += buf[i+3]
			a4 += buf[i+4]
			a5 += buf[i+5]
			a6 += buf[i+6]
			a7 += buf[i+7]
		}
		for ; i < len(buf); i++ {
			a0 += buf[i]
		}
		acc += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	}
	eb.grad = buf
	return acc
}
