package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

var updatePow10 = flag.Bool("update-pow10", false, "rewrite fnum_table.go from math/big")

// pow10Entry is g = ⌊10^e · 2^(127 − ⌊log₂ 10^e⌋)⌋ + 1 as {high, low}: 10^e
// scaled into [2^127, 2^128) and rounded up, never down, even where the
// scaling is exact.
func pow10Entry(e int) [2]uint64 {
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(e))), nil)
	var g *big.Int
	if e >= 0 {
		// ⌊log₂ 10^e⌋ = bitlen − 1.
		shift := 127 - (p.BitLen() - 1)
		if shift >= 0 {
			g = new(big.Int).Lsh(p, uint(shift))
		} else {
			g = new(big.Int).Rsh(p, uint(-shift))
		}
	} else {
		// 10^e = 1/p, and log₂ p is not an integer, so ⌊log₂ 10^e⌋ =
		// −bitlen(p).
		num := new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
		g = num.Quo(num, p)
	}
	g.Add(g, big.NewInt(1))
	if g.BitLen() != 128 {
		panic(fmt.Sprintf("10^%d: entry has %d bits", e, g.BitLen()))
	}
	lo := new(big.Int).And(g, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	return [2]uint64{new(big.Int).Rsh(g, 64).Uint64(), lo}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestPow10TableMatchesBig rebuilds every entry of pow10Table with
// math/big; -update-pow10 rewrites fnum_table.go from the same arithmetic.
func TestPow10TableMatchesBig(t *testing.T) {
	if *updatePow10 {
		var b bytes.Buffer
		b.WriteString("// Code generated by go test -run TestPow10TableMatchesBig -update-pow10; DO NOT EDIT.\n\n")
		b.WriteString("package trace\n\n")
		b.WriteString("// pow10TableMin is the exponent of pow10Table[0].\n")
		fmt.Fprintf(&b, "const pow10TableMin = %d\n\n", pow10TableMin)
		b.WriteString("// pow10Table holds, for e from pow10TableMin to 324, 10^e scaled into\n")
		b.WriteString("// [2^127, 2^128) and rounded up, as {high, low} 64-bit halves (see\n")
		b.WriteString("// pow10Entry in fnum_test.go).\n")
		fmt.Fprintf(&b, "var pow10Table = [%d][2]uint64{\n", 324-pow10TableMin+1)
		for e := pow10TableMin; e <= 324; e++ {
			g := pow10Entry(e)
			fmt.Fprintf(&b, "\t{0x%016x, 0x%016x}, // 1e%d\n", g[0], g[1], e)
		}
		b.WriteString("}\n")
		if err := os.WriteFile("fnum_table.go", b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(pow10Table) != 324-pow10TableMin+1 {
		t.Fatalf("pow10Table has %d entries, want %d", len(pow10Table), 324-pow10TableMin+1)
	}
	for i, got := range pow10Table {
		e := i + pow10TableMin
		if want := pow10Entry(e); got != want {
			t.Errorf("10^%d: table {%#x, %#x}, math/big {%#x, %#x}", e, got[0], got[1], want[0], want[1])
		}
	}
}

// TestFnumLogApproximations pins the multiply-shift logarithms of
// shortestDecimal over every exponent a float64 reaches, against math/big.
func TestFnumLogApproximations(t *testing.T) {
	// ⌊log₁₀ 2^q⌋ and ⌊log₁₀ ¾·2^q⌋ for q of every float64 and beyond.
	for q := -1100; q <= 1000; q++ {
		for _, closer := range []bool{false, true} {
			x := ratPow2(q)
			k := q * 1262611
			if closer {
				x.Mul(x, big.NewRat(3, 4))
				k -= 524031
			}
			k >>= 22
			// 10^k <= x < 10^(k+1).
			lo, hi := ratPow10(k), ratPow10(k+1)
			if x.Cmp(lo) < 0 || x.Cmp(hi) >= 0 {
				t.Fatalf("q=%d closer=%t: k=%d is not ⌊log₁₀⌋", q, closer, k)
			}
		}
	}
	for e := -400; e <= 400; e++ {
		got := floorLog2Pow10(e)
		x := ratPow10(e)
		lo, hi := ratPow2(got), ratPow2(got+1)
		if x.Cmp(lo) < 0 || x.Cmp(hi) >= 0 {
			t.Fatalf("floorLog2Pow10(%d) = %d", e, got)
		}
	}
}

func ratPow2(q int) *big.Rat {
	p := new(big.Int).Lsh(big.NewInt(1), uint(abs(q)))
	if q >= 0 {
		return new(big.Rat).SetInt(p)
	}
	return new(big.Rat).SetFrac(big.NewInt(1), p)
}

func ratPow10(k int) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(k))), nil)
	if k >= 0 {
		return new(big.Rat).SetInt(p)
	}
	return new(big.Rat).SetFrac(big.NewInt(1), p)
}

// jsonFloat is what encoding/json writes for a finite float64.
func jsonFloat(v float64) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// checkFloatLayouts holds both layouts of the kernel to their references
// for one float64.
func checkFloatLayouts(t *testing.T, v float64) {
	t.Helper()
	if got, want := string(appendFloatG(nil, v)), strconv.FormatFloat(v, 'g', -1, 64); got != want {
		t.Errorf("appendFloatG(%#016x) = %q, strconv %q", math.Float64bits(v), got, want)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if got, want := string(appendFloatJSON(nil, v)), jsonFloat(v); got != want {
		t.Errorf("appendFloatJSON(%#016x) = %q, encoding/json %q", math.Float64bits(v), got, want)
	}
}

// TestAppendFloatTable holds both layouts to strconv and encoding/json on
// the floats where a shortest-digit printer goes wrong: both zeros, the
// subnormal range, every power of 2 and of 10, the integers around 2^53,
// the extremes, and one ulp either side of every layout switch.
func TestAppendFloatTable(t *testing.T) {
	var vs []float64
	add := func(v float64) {
		vs = append(vs, v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for _, v := range []float64{
		0, 1, 0.1, 0.2, 0.3, 1.5, 2.5, 5e-324, 1e-323, 2.2250738585072009e-308,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1 << 53, 1<<53 + 2, 1<<53 - 1,
		1e23, 8.41e21, 5.0e-324, 9007199254740993, 123456789012345678,
		// 'g' switches to %e below 1e-4 and from 1e6; JSON below 1e-6
		// and from 1e21.
		1e-4, 1e-5, 1e6, 999999.5, 1e-6, 1e-7, 1e21, 1e20, 999999999999999999999,
	} {
		add(v)
	}
	for e := -1074; e <= 1023; e++ {
		add(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		v, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		add(v)
		add(3 * v)
	}
	for i := int64(0); i <= 1<<53; i = i*3 + 1 {
		add(float64(i))
	}
	for i := 0; i < 20000; i++ {
		add(float64(i))
	}
	vs = append(vs, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1))
	for _, v := range vs {
		checkFloatLayouts(t, v)
	}
}

// TestAppendFloatRandom sweeps random bit patterns (every exponent
// equally likely) and random decimals of up to 17 digits.
func TestAppendFloatRandom(t *testing.T) {
	n := 200000
	if testing.Short() || raceEnabled {
		// Single-goroutine arithmetic: the race detector has nothing to
		// find, and the plain run sweeps all of it.
		n = 20000
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		checkFloatLayouts(t, math.Float64frombits(r.Uint64()))
		d := r.Int63n(1e17)
		v, _ := strconv.ParseFloat(strconv.FormatInt(d, 10)+"e"+strconv.Itoa(r.Intn(600)-300), 64)
		checkFloatLayouts(t, v)
		checkFloatLayouts(t, r.Float64())
		checkFloatLayouts(t, r.ExpFloat64()/1000)
	}
}

// TestAppendIntMatchesStrconv covers the integer half of the digit table.
func TestAppendIntMatchesStrconv(t *testing.T) {
	for _, v := range []int64{0, 1, 9, 10, 99, 100, 101, 999, 1000, -1, -10, -100, math.MaxInt64, math.MinInt64, math.MaxInt32, 1 << 53} {
		if got, want := string(appendInt(nil, v)), strconv.FormatInt(v, 10); got != want {
			t.Errorf("appendInt(%d) = %q", v, got)
		}
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		v := r.Int63() >> r.Intn(63)
		if i%2 == 1 {
			v = -v
		}
		if got, want := string(appendInt(nil, v)), strconv.FormatInt(v, 10); got != want {
			t.Fatalf("appendInt(%d) = %q", v, got)
		}
	}
}

// TestDigits8Exhaustive holds the eight-digit writer to the decimal
// digits of every w below 10^8, counted up one at a time (every 97th
// under -race, as TestAppendFloatRandom samples).
func TestDigits8Exhaustive(t *testing.T) {
	step := uint32(1)
	if raceEnabled {
		step = 97
	}
	want := [8]byte{'0', '0', '0', '0', '0', '0', '0', '0'}
	for w := uint32(0); w < 1e8; w++ {
		if w%step == 0 {
			if got := digits8(w); got != binary.LittleEndian.Uint64(want[:]) {
				t.Fatalf("digits8(%d) = %q", w, binary.LittleEndian.AppendUint64(nil, got))
			}
		}
		for i := 7; i >= 0; i-- { // want += 1
			if want[i]++; want[i] <= '9' {
				break
			}
			want[i] = '0'
		}
	}
}

// FuzzAppendFloatMatchesStrconv holds both layouts of the kernel to
// strconv and encoding/json on raw float64 bits.
func FuzzAppendFloatMatchesStrconv(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-7, 1e21, 5e-324, math.MaxFloat64, 1e23, 123456.789} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkFloatLayouts(t, math.Float64frombits(u))
	})
}

func BenchmarkAppendFloat(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = r.ExpFloat64() / 50
	}
	buf := make([]byte, 0, 64)
	b.Run("kernel-g", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFloatG(buf[:0], vs[i&1023])
		}
	})
	b.Run("strconv-g", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vs[i&1023], 'g', -1, 64)
		}
	})
	b.Run("kernel-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFloatJSON(buf[:0], vs[i&1023])
		}
	})
}
