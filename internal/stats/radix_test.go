package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// radixSamples are samples on either side of everything sortFloats branches
// on: the length threshold, one sign or both, a byte shared by every
// element, duplicates, the ends of the range, and the two values it leaves
// to the comparison sort.
func radixSamples() map[string][]float64 {
	r := rand.New(rand.NewSource(1))
	fill := func(n int, draw func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		return xs
	}
	wild := func() float64 { return math.Float64frombits(r.Uint64()) } // every exponent, both signs, the odd NaN
	special := []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 5e-324, -5e-324, 1, -1}
	out := map[string][]float64{
		"below threshold": fill(radixMinLen-1, r.NormFloat64),
		"at threshold":    fill(radixMinLen, r.NormFloat64),
		"exponential":     fill(5000, r.ExpFloat64),
		"normal":          fill(5000, r.NormFloat64),
		"narrow range":    fill(5000, func() float64 { return 1 + r.Float64()/1024 }),
		"few values":      fill(5000, func() float64 { return float64(r.Intn(7)) - 3.5 }),
		"constant":        fill(5000, func() float64 { return 0.25 }),
		"sorted":          fill(5000, func() float64 { return 0 }),
		"wild bits":       fill(20000, wild),
		"wild, no nan": fill(20000, func() float64 {
			for {
				if v := wild(); v == v && !(v == 0 && math.Signbit(v)) {
					return v
				}
			}
		}),
		"specials":      append(fill(3000, r.NormFloat64), special...),
		"negative zero": append(fill(3000, r.NormFloat64), 0, math.Copysign(0, -1), 0),
		"nan":           append(fill(3000, r.NormFloat64), math.NaN()),
	}
	for i := range out["sorted"] {
		out["sorted"][i] = float64(i)
	}
	return out
}

// TestSortFloatsMatchesSortFloat64s holds sortFloats to sort.Float64s bit
// for bit, and radixSortFloats to declining — without touching the sample —
// exactly the samples that hold a NaN or a negative zero.
func TestSortFloatsMatchesSortFloat64s(t *testing.T) {
	for name, xs := range radixSamples() {
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := append([]float64(nil), xs...)
		sortFloats(got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d is %v (%#x), sort.Float64s has %v (%#x)",
					name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}

		declines := false
		for _, v := range xs {
			declines = declines || v != v || (v == 0 && math.Signbit(v))
		}
		kept := append([]float64(nil), xs...)
		if ok := radixSortFloats(kept); ok == declines {
			t.Errorf("%s: radixSortFloats = %v on a sample that holds a NaN or -0: %v", name, ok, declines)
		} else if !ok {
			for i := range xs {
				if math.Float64bits(kept[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("%s: a declined sample was changed at %d", name, i)
				}
			}
		}
	}
}

// BenchmarkSortFloats prices the radix sort against sort.Float64s on three
// shapes of sample: continuous (interarrival gaps), integer-valued (span
// byte counts and LBNs, as float64) and low-cardinality (a few distinct
// sizes, as a preset's storage requests have).
func BenchmarkSortFloats(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		draw func() float64
	}{
		{"continuous", func() float64 { return r.ExpFloat64() * 1e-3 }},
		{"integer", func() float64 { return float64(r.Int63n(1 << 30)) }},
		{"lowcard", func() float64 { return float64(int64(4096) << r.Intn(6)) }},
	}
	for _, shape := range shapes {
		for _, n := range []int{1024, 8192, 32768} {
			sample := make([]float64, n)
			for i := range sample {
				sample[i] = shape.draw()
			}
			xs := make([]float64, n)
			for _, sorter := range []struct {
				name string
				sort func([]float64)
			}{{"radix", sortFloats}, {"sort.Float64s", sort.Float64s}} {
				b.Run(fmt.Sprintf("%s/%s/%d", shape.name, sorter.name, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(xs, sample)
						sorter.sort(xs)
					}
				})
			}
		}
	}
}
