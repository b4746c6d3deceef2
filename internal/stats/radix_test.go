package stats_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"dcmodel/internal/stats"
)

// radixSamples are samples on either side of everything SortFloats branches
// on: the length threshold, one sign or both, how many key bytes vary
// across the sample, integer values, duplicates, the ends of the range, the
// two values it leaves to the comparison sort, and the samples the
// cross-examination sorts on the six presets.
func radixSamples(tb testing.TB) map[string][]float64 {
	r := rand.New(rand.NewSource(1))
	fill := func(n int, draw func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		return xs
	}
	wild := func() float64 { return math.Float64frombits(r.Uint64()) } // every exponent, both signs, the odd NaN
	// bytes varies the bits of 1.5 under mask only: the key bytes mask
	// touches vary, every other byte is the same in the whole sample.
	bytes := func(mask uint64) func() float64 {
		return func() float64 { return math.Float64frombits(math.Float64bits(1.5) ^ r.Uint64()&mask) }
	}
	special := []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 5e-324, -5e-324, 1, -1}
	out := map[string][]float64{
		"below threshold": fill(stats.RadixMinLen-1, r.NormFloat64),
		"at threshold":    fill(stats.RadixMinLen, r.NormFloat64),
		"above threshold": fill(stats.RadixMinLen+1, r.NormFloat64),
		"exponential":     fill(5000, r.ExpFloat64),
		"normal":          fill(5000, r.NormFloat64),
		"narrow range":    fill(5000, func() float64 { return 1 + r.Float64()/1024 }),
		"few values":      fill(5000, func() float64 { return float64(r.Intn(7)) - 3.5 }),
		"two values":      fill(5000, func() float64 { return []float64{0.25, 3}[r.Intn(2)] }),
		"constant":        fill(5000, func() float64 { return 0.25 }),
		"sorted":          fill(5000, func() float64 { return 0 }),
		"one byte":        fill(5000, bytes(0xff)),
		"one byte, high":  fill(5000, bytes(0xff<<48)),
		"two bytes":       fill(5000, bytes(0xff<<40|0xff<<8)),
		"eight bytes": fill(5000, func() float64 {
			return math.Ldexp(r.NormFloat64(), r.Intn(2000)-1000)
		}),
		"integer lbns":  fill(20000, func() float64 { return float64(r.Int63n(1 << 30)) }),
		"integer sizes": fill(20000, func() float64 { return float64(int64(4096) << r.Intn(6)) }),
		"wild bits":     fill(20000, wild),
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
	for name, xs := range presetFeatures(tb) {
		out["preset "+name] = slices.Clone(xs)
	}
	return out
}

// TestSortFloatsMatchesSortFloat64s holds SortFloats to sort.Float64s bit
// for bit, and the radix pass to declining — without touching the sample —
// exactly the samples that hold a NaN or a negative zero.
func TestSortFloatsMatchesSortFloat64s(t *testing.T) {
	for name, xs := range radixSamples(t) {
		want := slices.Clone(xs)
		sort.Float64s(want)
		got := slices.Clone(xs)
		stats.SortFloats(got)
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
		kept := slices.Clone(xs)
		if ok := stats.RadixSortFloats(kept); ok == declines {
			t.Errorf("%s: the radix pass = %v on a sample that holds a NaN or -0: %v", name, ok, declines)
		} else if !ok {
			for i := range xs {
				if math.Float64bits(kept[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("%s: a declined sample was changed at %d", name, i)
				}
			}
		}
	}
}

// FuzzSortFloatsMatchesSort reads the input as float64 bit patterns, so
// NaN payloads, -0, subnormals and both infinities all occur, and holds
// SortFloats and the radix pass to sort.Float64s bit for bit, on the sample
// and on the sample repeated past RadixMinLen (which SortFloats sorts by
// radix). A sample the radix pass declines must come back untouched.
func FuzzSortFloatsMatchesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	for _, xs := range [][]float64{
		{3, 1, 2, 1, 0, -1, math.Inf(1), math.Inf(-1), 5e-324, -5e-324},
		{4096, 8192, 4096, 65536, 8192},
		{0, 7, 1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, 3},
		{0.5, math.NaN(), -0.25, 1e300},
	} {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		long := slices.Clone(xs)
		for len(long) > 0 && len(long) < stats.RadixMinLen {
			long = append(long, xs...)
		}
		for _, sample := range [][]float64{xs, long} {
			want := slices.Clone(sample)
			sort.Float64s(want)
			got := slices.Clone(sample)
			stats.SortFloats(got)
			radix := slices.Clone(sample)
			declined := !stats.RadixSortFloats(radix)
			if declined {
				for i := range radix {
					if math.Float64bits(radix[i]) != math.Float64bits(sample[i]) {
						t.Fatalf("n=%d: the radix pass declined and changed element %d", len(sample), i)
					}
				}
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d: SortFloats element %d is %#x, sort.Float64s has %#x",
						len(sample), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if !declined && math.Float64bits(radix[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d: radix element %d is %#x, sort.Float64s has %#x",
						len(sample), i, math.Float64bits(radix[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// BenchmarkSortFloats prices SortFloats against sort.Float64s on four
// shapes of sample: continuous (interarrival gaps), integer-valued (span
// byte counts and LBNs, as float64), low-cardinality (a few distinct sizes,
// as a preset's storage requests have) and features (every sample the
// cross-examination sorts on the six presets at seed 1, one set per
// iteration). Each reports ns per element sorted.
func BenchmarkSortFloats(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	draw := func(n int, f func() float64) [][]float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return [][]float64{xs}
	}
	type shape struct {
		name    string
		samples [][]float64
	}
	var shapes []shape
	for _, n := range []int{1024, 8192, 32768} {
		shapes = append(shapes,
			shape{fmt.Sprintf("continuous/%d", n), draw(n, func() float64 { return r.ExpFloat64() * 1e-3 })},
			shape{fmt.Sprintf("integer/%d", n), draw(n, func() float64 { return float64(r.Int63n(1 << 30)) })},
			shape{fmt.Sprintf("lowcard/%d", n), draw(n, func() float64 { return float64(int64(4096) << r.Intn(6)) })})
	}
	feat := presetFeatures(b)
	keys := make([]string, 0, len(feat))
	for k := range feat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var set [][]float64
	for _, k := range keys {
		set = append(set, feat[k])
	}
	shapes = append(shapes, shape{"features", set})

	for _, sh := range shapes {
		var elems int
		scratch := make([][]float64, len(sh.samples))
		for i, xs := range sh.samples {
			elems += len(xs)
			scratch[i] = make([]float64, len(xs))
		}
		for _, sorter := range []struct {
			name string
			sort func([]float64)
		}{{"SortFloats", stats.SortFloats}, {"sort.Float64s", sort.Float64s}} {
			b.Run(sh.name+"/"+sorter.name, func(b *testing.B) {
				var sorting time.Duration
				for i := 0; i < b.N; i++ {
					for j, xs := range sh.samples {
						copy(scratch[j], xs)
					}
					t0 := time.Now()
					for _, xs := range scratch {
						sorter.sort(xs)
					}
					sorting += time.Since(t0)
				}
				b.ReportMetric(float64(sorting.Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
			})
		}
	}
}
