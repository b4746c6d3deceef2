package stats

import (
	"math"
	"runtime"
	"sort"
)

// radixMinLen is the sample length from which SortFloats takes the radix
// path. Below it the comparison sort is as fast and needs no scratch.
const radixMinLen = 1024

// SortFloats sorts xs in ascending order and leaves exactly the slice
// sort.Float64s leaves, so it may stand in for it anywhere. A long sample
// is sorted by radix over its IEEE 754 bits (over the integers themselves
// when every value is a non-negative integer), one scatter pass per key
// byte that varies across the sample: a few-valued or integer-valued sample
// costs one to four passes, a continuous one up to eight, where the
// comparison sort costs n log n comparisons.
func SortFloats(xs []float64) {
	if len(xs) < radixMinLen || !radixSortFloats(xs) {
		sort.Float64s(xs)
	}
}

// radixKey maps the bits of a float to an integer that orders as the float
// does: a positive number has its sign bit set, a negative one has every bit
// flipped, so that a larger magnitude sorts lower. fromRadixKey inverts it.
func radixKey(b uint64) uint64     { return b ^ (uint64(int64(b)>>63) | 1<<63) }
func fromRadixKey(k uint64) uint64 { return k ^ (uint64(int64(^k)>>63) | 1<<63) }

// radixFree recycles key buffers between radix sorts, one per processor that
// may be sorting at once. A buffer is kept only up to radixKeep keys, so
// what it holds stays a small part of the live heap; a longer sample gets a
// buffer of its own. A channel rather than a sync.Pool keeps a sort's
// allocation count exact, which the allocation tests pin also under the
// race detector (where a pool drops a share of what it is handed).
var radixFree = make(chan []uint64, runtime.GOMAXPROCS(0))

const radixKeep = 1 << 14

// radixSortFloats sorts xs by least-significant-digit radix passes, one per
// key byte that is not the same in every element. It declines, touching
// nothing, a sample holding a NaN or a negative zero: a NaN has no place in
// the order, and -0 equals +0 under < while their bits differ, so only the
// comparison sort can say where sort.Float64s would have left them. Without
// those, values that compare equal are the same bits, the ascending order
// is unique, and this is it.
//
// The key is radixKey of the bits, or, when every element is a non-negative
// integer below 2^63, the integer itself: a span's bytes or LBN then varies
// in its low bytes only, where its float bits vary in up to six. The keys
// are computed in one pass (a second one re-keys an integer sample) into a
// recycled buffer, never per scatter. The passes move the keys between that
// buffer and xs, which holds them as float64 bit patterns in between; every
// pass but the last counts the next pass's byte on the way, and the last
// writes the floats themselves into xs.
func radixSortFloats(xs []float64) bool {
	n := len(xs)
	if uint64(n) > math.MaxUint32 {
		return false // the counts are uint32
	}
	var keys []uint64
	select {
	case keys = <-radixFree:
	default:
	}
	if cap(keys) < n {
		keys = make([]uint64, n)
	}
	keys = keys[:n]
	if n <= radixKeep {
		defer func() {
			select {
			case radixFree <- keys:
			default:
			}
		}()
	}
	and, or := ^uint64(0), uint64(0)
	ints := true
	for i, v := range xs {
		b := math.Float64bits(v)
		if v != v || b == 1<<63 {
			return false
		}
		k := radixKey(b)
		keys[i] = k
		and &= k
		or |= k
		ints = ints && v >= 0 && v < 1<<63 && v == float64(uint64(v))
	}
	if ints {
		and, or = ^uint64(0), 0
		for i, v := range xs {
			k := uint64(v)
			keys[i] = k
			and &= k
			or |= k
		}
	}
	// digits are the shifts of the key bytes that vary: a byte every key
	// shares would move nothing.
	var digits [8]uint
	passes := 0
	for d := uint(0); d < 64; d += 8 {
		if byte((and^or)>>d) != 0 {
			digits[passes] = d
			passes++
		}
	}
	if passes == 0 {
		return true // every element has the same bits
	}

	// The last pass must move the keys from keys into xs. With an even
	// number of passes the keys therefore start in xs: the counting pass
	// copies them there.
	inKeys := passes%2 == 1
	var counts, next [256]uint32
	d := digits[0]
	for i, k := range keys {
		counts[byte(k>>d)]++
		if !inKeys {
			xs[i] = math.Float64frombits(k)
		}
	}
	for p := 0; ; p++ {
		var sum uint32
		for b, c := range counts {
			counts[b], sum = sum, sum+c
		}
		if p == passes-1 {
			if ints {
				for _, k := range keys {
					b := byte(k >> d)
					xs[counts[b]] = float64(k)
					counts[b]++
				}
			} else {
				for _, k := range keys {
					b := byte(k >> d)
					xs[counts[b]] = math.Float64frombits(fromRadixKey(k))
					counts[b]++
				}
			}
			return true
		}
		dn := digits[p+1]
		next = [256]uint32{}
		if inKeys {
			for _, k := range keys {
				b := byte(k >> d)
				xs[counts[b]] = math.Float64frombits(k)
				counts[b]++
				next[byte(k>>dn)]++
			}
		} else {
			for _, v := range xs {
				k := math.Float64bits(v)
				b := byte(k >> d)
				keys[counts[b]] = k
				counts[b]++
				next[byte(k>>dn)]++
			}
		}
		inKeys = !inKeys
		counts, d = next, dn
	}
}
