package trace

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// The text codecs' number printer. Every float of a CSV or JSON answer
// goes through shortestDecimal, a Schubfach core (R. Giulietti, "The
// Schubfach way to render doubles", 2020) that finds the shortest decimal
// reading back as the same float64 from one 128-bit power of ten, and then
// through one of two layouts:
//
//   - appendFloatG is strconv.AppendFloat(dst, v, 'g', -1, 64) (CSV);
//   - appendFloatJSON is encoding/json's float64: the ES6 form, 'f' on
//     [1e-6, 1e21) and 'e' with an unpadded exponent elsewhere.
//
// strconv also prints the shortest round-trip decimal, and picks the one
// closest to the float among several, so the two agree byte for byte on
// every float64 (fnum_test.go holds them to strconv and encoding/json).
// Integers go through the same digit writer as the float digits.
//
// The CSV reader's float parser, parseCSVFloat, runs the other way over
// the same pow10Table: parseFloat reads a plain decimal of at most 19
// significant digits eight digits at a time and rounds it with Clinger's
// fast path or Eisel–Lemire, and everything else goes to
// strconv.ParseFloat.

// pow10s holds 10^0 through 10^19.
var pow10s = [20]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen is the number of decimal digits of v > 0.
func decimalLen(v uint64) int {
	n := bits.Len64(v) * 1233 >> 12 // ⌊log₁₀ 2^len⌋, one short or exact
	if v >= pow10s[n] {
		n++
	}
	return n
}

// grow extends dst by n bytes and returns it with the new bytes, which the
// caller overwrites.
func grow(dst []byte, n int) ([]byte, []byte) {
	l := len(dst)
	if cap(dst)-l < n {
		dst = slices.Grow(dst, n)
	}
	dst = dst[:l+n]
	return dst, dst[l:]
}

// putDigits writes v, which has exactly len(d) digits, into d, eight
// digits at a time from the right.
func putDigits(d []byte, v uint64) {
	i := len(d)
	for i >= 8 {
		q := v / 1e8
		binary.LittleEndian.PutUint64(d[i-8:i], digits8(uint32(v-q*1e8)))
		i -= 8
		v = q
	}
	if i > 0 {
		x := digits8(uint32(v)) >> (64 - 8*i) // the leading i digits
		for j := 0; j < i; j++ {
			d[j] = byte(x)
			x >>= 8
		}
	}
}

// digits8 returns the eight decimal digits of w < 10^8, zero-padded, as
// ASCII packed first digit lowest — the word to store little-endian. The
// divisions run on all lanes at once: by 10^4 into two 32-bit lanes, by
// 100 into four 16-bit ones (x·5243 >> 19 is x/100 for x < 43 699), by 10
// into eight bytes (x·103 >> 10 is x/10 for x < 179); no lane's product
// reaches the next lane.
func digits8(w uint32) uint64 {
	x := uint64(w/10000) | uint64(w%10000)<<32
	q := x * 5243 >> 19 & 0x0000007f0000007f
	x = q | (x-q*100)<<16
	q = x * 103 >> 10 & 0x000f000f000f000f
	x = q | (x-q*10)<<8
	return x | 0x3030303030303030
}

// appendUint is strconv.AppendUint(dst, v, 10).
func appendUint(dst []byte, v uint64) []byte {
	if v < 10 {
		return append(dst, byte('0'+v))
	}
	n := decimalLen(v)
	if v < 1e8 {
		// One store of all eight digits, the leading zeros shifted out;
		// what lands past the n digits is spare capacity.
		l := len(dst)
		dst, _ = grow(dst, 8)
		binary.LittleEndian.PutUint64(dst[l:], digits8(uint32(v))>>(64-8*n))
		return dst[:l+n]
	}
	dst, d := grow(dst, n)
	putDigits(d, v)
	return dst
}

// appendInt is strconv.AppendInt(dst, v, 10).
func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		return appendUint(append(dst, '-'), -uint64(v))
	}
	return appendUint(dst, uint64(v))
}

// appendFloatG appends v as strconv.AppendFloat(dst, v, 'g', -1, 64)
// does: the shortest digits, in %e form when the decimal exponent is below
// -4 or at least 6 (strconv's cut-off for the shortest precision), in %f
// form otherwise.
func appendFloatG(dst []byte, v float64) []byte {
	u := math.Float64bits(v)
	if u>>52&0x7ff == 0x7ff {
		switch {
		case u<<12 != 0:
			return append(dst, "NaN"...)
		case u>>63 != 0:
			return append(dst, "-Inf"...)
		}
		return append(dst, "+Inf"...)
	}
	if u>>63 != 0 {
		dst = append(dst, '-')
	}
	if u<<1 == 0 {
		return append(dst, '0')
	}
	m, e := shortestDecimal(u)
	nd := decimalLen(m)
	if x := nd + e - 1; x < -4 || x >= 6 {
		return appendExp(dst, m, nd, x, 2)
	}
	return appendFixed(dst, m, nd, nd+e)
}

// appendFloatJSON appends a finite v as encoding/json encodes a float64:
// the ES6 number-to-string form, %f for magnitudes in [1e-6, 1e21) and %e
// otherwise, its exponent unpadded.
func appendFloatJSON(dst []byte, v float64) []byte {
	u := math.Float64bits(v)
	if u>>63 != 0 {
		dst = append(dst, '-')
	}
	if u<<1 == 0 {
		return append(dst, '0')
	}
	m, e := shortestDecimal(u)
	nd := decimalLen(m)
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		return appendExp(dst, m, nd, nd+e-1, 1)
	}
	return appendFixed(dst, m, nd, nd+e)
}

// appendExp appends the nd digits of m as d.ddd (no point for one digit),
// then the exponent x as e±dd…, padded to at least pad digits.
func appendExp(dst []byte, m uint64, nd, x, pad int) []byte {
	n := nd
	if nd > 1 {
		n++
	}
	dst, d := grow(dst, n)
	putDigits(d[n-nd:], m)
	if nd > 1 {
		d[0], d[1] = d[1], '.'
	}
	if x < 0 {
		dst = append(dst, 'e', '-')
		x = -x
	} else {
		dst = append(dst, 'e', '+')
	}
	if x < 10 {
		if pad == 2 {
			dst = append(dst, '0')
		}
		return append(dst, byte('0'+x))
	}
	return appendUint(dst, uint64(x))
}

// appendFixed appends the nd digits of m with the decimal point dp places
// after the first, as %f with exactly the fraction digits they need.
func appendFixed(dst []byte, m uint64, nd, dp int) []byte {
	var d []byte
	switch {
	case dp <= 0: // 0.000ddd
		dst, d = grow(dst, 2-dp+nd)
		d[0], d[1] = '0', '.'
		for i := 2; i < 2-dp; i++ {
			d[i] = '0'
		}
		putDigits(d[2-dp:], m)
	case dp < nd: // ddd.ddd: the digits one place right, then the
		// integer part back
		dst, d = grow(dst, nd+1)
		putDigits(d[1:], m)
		for i := 0; i < dp; i++ {
			d[i] = d[i+1]
		}
		d[dp] = '.'
	default: // ddd000
		dst, d = grow(dst, dp)
		putDigits(d[:nd], m)
		for i := nd; i < dp; i++ {
			d[i] = '0'
		}
	}
	return dst
}

// shortestDecimal returns the shortest m × 10^e that reads back as the
// finite, non-zero float64 with bits u (sign ignored); among several, the
// one closest to it, and of two as close, the one with the even last digit.
// m carries no trailing zero.
//
// This is Schubfach. With v = c × 2^q, the rounding interval of v is
// [c−½, c+½] × 2^q (its lower half shrunk to ¼ at a power of two), and all
// three points are scaled by 10^−k for k = ⌊log₁₀ 2^q⌋, which leaves at most
// two integers of the scaled interval to choose from at the shortest
// length. The scaling is one 64×128-bit product rounded to odd against
// pow10Table, which is exact enough that the comparisons below are the
// comparisons of the exact values (the paper's proof covers every float64).
func shortestDecimal(u uint64) (m uint64, e int) {
	mant := u & (1<<52 - 1)
	exp := int(u >> 52 & 0x7ff)
	var c uint64
	var q int
	if exp != 0 {
		c, q = mant|1<<52, exp-1075
		if q <= 0 && q > -53 && c&(1<<uint(-q)-1) == 0 {
			// An integer below 2^53: its own digits are the shortest,
			// since both neighbours are integers too.
			return trimZeros(c>>uint(-q), 0)
		}
	} else {
		c, q = mant, -1074
	}

	even := c&1 == 0
	// At a power of two the float below is half as far away as the one
	// above, so the lower bound is ¼ ulp away instead of ½.
	closer := mant == 0 && exp > 1
	cbl := 4*c - 2
	if closer {
		cbl++
	}
	cb, cbr := 4*c, 4*c+2

	// k = ⌊log₁₀(2^q)⌋, or ⌊log₁₀(¾·2^q)⌋ at a power of two; both
	// multiply-shift forms are exact for |q| ≤ 1500 (fnum_test.go).
	k := q * 1262611
	if closer {
		k -= 524031
	}
	k >>= 22
	// h ∈ [1, 4] aligns c·2^q·10^−k with the table's scale.
	h := uint(q + floorLog2Pow10(-k) + 1)

	g := &pow10Table[-k-pow10TableMin]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, cb<<h)
	vbr := roundToOdd(g, cbr<<h)
	lower, upper := vbl, vbr
	if !even {
		lower++
		upper--
	}

	// vb is 4·v·10^−k (rounded to odd); s its integer part.
	s := vb >> 2
	if s >= 10 {
		// One digit shorter: at most one of sp·10 and (sp+1)·10 is in
		// the rounding interval.
		sp := s / 10
		upIn := lower <= 40*sp
		wpIn := 40*sp+40 <= upper
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return trimZeros(sp, k+1)
		}
	}
	uIn := lower <= 4*s
	wIn := 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return trimZeros(s, k)
	}
	// Both s and s+1 are in the interval: take the closer one, the even
	// one on a tie.
	mid := 4*s + 2
	if vb > mid || (vb == mid && s&1 != 0) {
		s++
	}
	return trimZeros(s, k)
}

// roundToOdd returns ⌊cp·g / 2^128⌋ with its lowest bit set when the
// fraction is not zero: the round-to-odd product of Schubfach. The part of
// the fraction below 2^−63 is ignored — it is the table's own rounding,
// never the value's (Giulietti, section 9).
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	v := y1 + carry
	if z > 1 {
		v |= 1
	}
	return v
}

// floorLog2Pow10 returns ⌊log₂ 10^e⌋, exactly for |e| ≤ 1233.
func floorLog2Pow10(e int) int {
	return e * 1741647 >> 19
}

// trimZeros drops the trailing zeros of m (non-zero) into the exponent e.
func trimZeros(m uint64, e int) (uint64, int) {
	if m%10 != 0 {
		return m, e
	}
	for m%10000 == 0 {
		m /= 10000
		e += 4
	}
	if m%100 == 0 {
		m /= 100
		e += 2
	}
	if m%10 == 0 {
		m /= 10
		e++
	}
	return m, e
}

// parseCSVFloat is strconv.ParseFloat(string(b), 64): the value, and the
// error with strconv's wording. parseFloat takes the fields WriteCSV
// writes; strconv gets the rest.
func parseCSVFloat(b []byte) (float64, error) {
	if v, ok := parseFloat(b); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseFloat reads b of the form [-]digits[.digits][(e|E)[+-]digits], with
// at least one mantissa digit, at most 19 of them significant, and an
// exponent the table covers, as the float64 nearest to it (of two as near,
// the one with the even mantissa). It reports false for any other input
// and where Eisel–Lemire cannot decide, and then b is strconv's to read:
// a plus sign, hex, underscores, Inf and NaN, longer mantissas, overflow,
// subnormals and defects.
func parseFloat(b []byte) (float64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	// Leading zeros are no digit of the mantissa.
	i := 0
	for i < len(b) && b[i] == '0' {
		i++
	}
	man, j := readDigits(b, i, 0)
	nd := j - i // significant digits in man
	saw := j > 0
	exp := 0
	if i = j; i < len(b) && b[i] == '.' {
		i++
		k := i
		if nd == 0 {
			for k < len(b) && b[k] == '0' {
				k++
			}
		}
		man, j = readDigits(b, k, man)
		nd += j - k
		exp = i - j
		saw = saw || j > i
		i = j
	}
	if !saw || nd > 19 {
		return 0, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e = e*10 + int(b[i]-'0'); e >= 10000 {
				return 0, false
			}
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(b) {
		return 0, false
	}
	return nearestFloat(man, exp, neg)
}

// readDigits appends the decimal digits that start b[i:] to m and returns
// it with the index past them. It reads eight digits per step while eight
// bytes remain; past 19 digits m wraps, which the caller, counting the
// digits, refuses.
func readDigits(b []byte, i int, m uint64) (uint64, int) {
	for len(b)-i >= 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(w) {
			break
		}
		m = m*1e8 + parse8(w)
		i += 8
	}
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return m, i
}

// eightDigits reports whether the eight bytes of w, little-endian, are all
// ASCII digits: every byte and every byte plus 6 has high nibble 3.
func eightDigits(w uint64) bool {
	return w&0xf0f0f0f0f0f0f0f0|(w+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 == 0x3333333333333333
}

// parse8 is the value of eight ASCII digits packed first digit lowest,
// the inverse of digits8: pairs of digits are joined into bytes by one
// multiply-shift, and two multiplies join the four pairs.
func parse8(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // byte 2i is digits 2i and 2i+1
	w = (w&0x000000ff000000ff*(100+1000000<<32) + w>>16&0x000000ff000000ff*(1+10000<<32)) >> 32
	return w & 0xffffffff
}

// nearestFloat returns the float64 nearest to man × 10^exp10 (sign neg),
// or false where it cannot tell for certain: a tie between two floats, a
// result outside the normal range, or an exponent the table does not
// cover. Where man and 10^|exp10| are both floats, one correctly rounded
// multiply or divide is the answer (Clinger's fast path, which strconv
// takes first too); elsewhere it is Eisel–Lemire (D. Lemire, "Number
// parsing at a gigabyte per second", 2021), as in strconv. That needs
// ⌊10^e · 2^k⌋, and each pow10Table entry is exactly that plus one
// (fnum_test.go checks all of them), so the product runs against the entry
// minus one.
func nearestFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	if man>>53 == 0 && exp10 > -len(pow10s) && exp10 < len(pow10s) {
		f := float64(man)
		if exp10 < 0 {
			f /= float64(pow10s[-exp10])
		} else {
			f *= float64(pow10s[exp10])
		}
		if neg {
			f = -f
		}
		return f, true
	}
	if exp10 < pow10TableMin || exp10 >= pow10TableMin+len(pow10Table) {
		return 0, false
	}
	g := &pow10Table[exp10-pow10TableMin]
	lo, borrow := bits.Sub64(g[1], 1, 0)
	hi := g[0] - borrow

	// man normalized to bit 63 times the 128-bit 10^exp10: the float's
	// 53 bits and a rounding bit are at the top of the upper product.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(floorLog2Pow10(exp10)+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(man, hi)
	if xHi&0x1ff == 0x1ff && xLo+man < man {
		// The lower half of 10^exp10 may carry into the bits kept: take it
		// in, and give up if it still could.
		yHi, yLo := bits.Mul64(man, lo)
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1ff == 0x1ff && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&(1<<(msb+9)-1) == 0 && retMantissa&3 == 1 {
		// Halfway between two floats as far as the product, which is at
		// most the exact one, can tell. (strconv tests 9 dropped bits of
		// the 9 or 10 and so gives up on a few more.)
		return 0, false
	}
	// Round the 54 bits to 53, to even on a tie.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7ff-1 {
		// Subnormal, zero or infinite.
		return 0, false
	}
	return math.Float64frombits(sign | retExp2<<52 | retMantissa&(1<<52-1)), true
}
