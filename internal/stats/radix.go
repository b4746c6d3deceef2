package stats

import (
	"math"
	"sort"
)

// radixMinLen is the sample length from which sortFloats takes the radix
// path. Below it the comparison sort is as fast and needs no scratch.
const radixMinLen = 1024

// sortFloats sorts xs in ascending order and leaves exactly the slice
// sort.Float64s leaves. A long sample is sorted by radix over the IEEE 754
// bits, which costs a few linear passes where the comparison sort costs
// n log n comparisons: a retrain sorts every sample it freezes into an
// Empirical, and those sorts were a fifth of its time.
func sortFloats(xs []float64) {
	if len(xs) < radixMinLen || !radixSortFloats(xs) {
		sort.Float64s(xs)
	}
}

// radixKey maps a float to an integer that orders as the float does: a
// positive number has its sign bit set, a negative one has every bit
// flipped, so that a larger magnitude sorts lower.
func radixKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSortFloats sorts xs by least-significant-digit radix passes over
// radixKey, one per byte that is not the same in every element. It declines,
// touching nothing, a sample holding a NaN or a negative zero: a NaN has no
// place in the order, and -0 equals +0 under < while their bits differ, so
// only the comparison sort can say where sort.Float64s would have left them.
// Without those, values that compare equal are the same bits, the ascending
// order is unique, and this is it.
func radixSortFloats(xs []float64) bool {
	var counts [8][256]int
	for _, v := range xs {
		if v != v || (v == 0 && math.Signbit(v)) {
			return false
		}
		k := radixKey(v)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := xs, make([]float64, len(xs))
	for d := range counts {
		c := &counts[d]
		if c[byte(radixKey(src[0])>>(8*d))] == len(xs) {
			continue // every element has this byte: the pass would move nothing
		}
		next := 0
		for b, n := range c {
			c[b], next = next, next+n
		}
		for _, v := range src {
			b := byte(radixKey(v) >> (8 * d))
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	return true
}
