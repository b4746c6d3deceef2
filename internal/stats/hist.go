package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside the
// range are clamped into the first/last bin, which matches how workload
// feature histograms (the VU-list style of Luthi) are built over a known
// feature range.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram returns a histogram over [lo, hi) with nbins bins. It panics
// if nbins < 1 or hi <= lo, which are programming errors.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, nbins)}
}

// HistogramOf builds an nbins histogram spanning the observed range of xs.
func HistogramOf(xs []float64, nbins int) *Histogram {
	lo, hi := Min(xs), Max(xs)
	if len(xs) == 0 || lo == hi {
		hi = lo + 1
	}
	h := NewHistogram(lo, hi+1e-12*(hi-lo), nbins)
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Counts[h.binOf(x)]++
	h.total++
}

func (h *Histogram) binOf(x float64) int {
	n := len(h.Counts)
	idx := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Probabilities returns the normalized bin masses (empty histogram yields
// all zeros).
func (h *Histogram) Probabilities() []float64 {
	ps := make([]float64, len(h.Counts))
	if h.total == 0 {
		return ps
	}
	for i, c := range h.Counts {
		ps[i] = float64(c) / float64(h.total)
	}
	return ps
}

// Mean returns the histogram-approximated mean using bin centers.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for i, c := range h.Counts {
		s += float64(c) * h.BinCenter(i)
	}
	return s / float64(h.total)
}

// Quantile returns the histogram-approximated p-quantile via interpolation
// inside the containing bin.
func (h *Histogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	target := clamp01(p) * float64(h.total)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*h.BinWidth()
		}
		cum = next
	}
	return h.Hi
}

// Distance returns the L1 (total-variation x2) distance between the
// normalized masses of h and other. The histograms must have the same
// number of bins; the bin ranges are assumed comparable.
func (h *Histogram) Distance(other *Histogram) (float64, error) {
	if len(h.Counts) != len(other.Counts) {
		return 0, fmt.Errorf("stats: histogram bin mismatch %d vs %d", len(h.Counts), len(other.Counts))
	}
	hp, op := h.Probabilities(), other.Probabilities()
	var d float64
	for i := range hp {
		d += math.Abs(hp[i] - op[i])
	}
	return d, nil
}

// EMD returns the one-dimensional earth mover's distance (in bins) between
// the normalized masses of h and other, a smoother distributional distance
// than L1 for feature-fidelity scoring.
func (h *Histogram) EMD(other *Histogram) (float64, error) {
	if len(h.Counts) != len(other.Counts) {
		return 0, fmt.Errorf("stats: histogram bin mismatch %d vs %d", len(h.Counts), len(other.Counts))
	}
	hp, op := h.Probabilities(), other.Probabilities()
	var carry, emd float64
	for i := range hp {
		carry += hp[i] - op[i]
		emd += math.Abs(carry)
	}
	return emd, nil
}

// String renders a compact ASCII bar chart of the histogram, used by the
// figure-regeneration harnesses.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := int64(1)
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		bar := int(40 * c / maxCount)
		fmt.Fprintf(&b, "[%12.4g,%12.4g) %8d %s\n",
			h.Lo+float64(i)*h.BinWidth(), h.Lo+float64(i+1)*h.BinWidth(),
			c, strings.Repeat("#", bar))
	}
	return b.String()
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied).
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	return &ECDF{sorted: sortedCopy(xs)}, nil
}

// At returns the ECDF evaluated at x.
func (e *ECDF) At(x float64) float64 {
	n := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(n) / float64(len(e.sorted))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Quantile returns the p-quantile of the sample with interpolation.
func (e *ECDF) Quantile(p float64) float64 { return quantileSorted(e.sorted, clamp01(p)) }
