package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
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

// parseFloatCases are the float fields a decimal parser gets wrong: ties
// between two floats, 17, 19 and 20 significant digits, leading zeros,
// exponents at the edges of the power-of-ten table and of float64,
// subnormals, both zeros, and the spellings strconv alone accepts or
// refuses.
var parseFloatCases = []string{
	"0", "-0", "0.0", "-0.000", "00", "0e0", "-0e-999", "0.000e400",
	"1", "-1", "0.1", "0.2", "0.3", "1.5", "2.5", "123456.789", "1E5", "1e+5", "1e-5",
	// halfway between two floats: 2^53+1, 2^52+½, 1+2^−53 (rounded
	// and exact), the smallest-normal boundary
	"9007199254740993", "9007199254740995", "-9007199254740993", "4503599627370496.5",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.0000000000000001110223024625156540424", "2.2250738585072011e-308",
	// 17, 19 and 20 significant digits
	"1.2345678901234567", "0.12345678901234567", "12345678901234567",
	"1.234567890123456789", "9999999999999999999", "1844674407370955161",
	"12345678901234567890", "0.12345678901234567890", "1.8446744073709551616",
	"18446744073709551615", "99999999999999999999",
	// leading zeros
	"0.000000000000000000000000001234", "000123", "-00.00012", "0.0000000000000000000001234567890123456789",
	// exponents at ±292, ±308 and ±324
	"1e-292", "1e292", "9.999999999999999e-293", "1e-293", "1e-308", "1e308", "-1e308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e-324", "1e324", "1e-325", "2e-324", "3e-324", "2.4703282292062328e-324",
	"2.4703282292062327e-324", "1e-400", "1e400", "-1e400", "1e99999", "0.1e-99999",
	// subnormals
	"5e-324", "4.9406564584124654e-324", "2.225073858507201e-308", "1.5e-323", "-4e-320",
	// strconv's own spellings, and defects
	".5", "5.", "-.5", "1e", "1e+", "1e-", "+1", "+0", "1_0", "0x1p3", "0X1P-2", "0x_1p0",
	"Inf", "-Inf", "+Inf", "inf", "infinity", "nan", "NaN",
	"", "-", ".", "-.", "e5", "--1", "1..2", "1e5.5", "1.2.3", " 1", "1 ", "1e 5", "0.1x", "١",
}

// checkParseCSVFloat holds parseCSVFloat to strconv.ParseFloat on one
// field: the same bits and the same error text.
func checkParseCSVFloat(t *testing.T, s string) {
	t.Helper()
	got, gotErr := parseCSVFloat([]byte(s))
	want, wantErr := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("parseCSVFloat(%q) = %v (%#016x), strconv %v (%#016x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Errorf("parseCSVFloat(%q) error %v, strconv %v", s, gotErr, wantErr)
	}
}

// TestParseCSVFloatMatchesStrconv holds the CSV reader's float parser to
// strconv on parseFloatCases.
func TestParseCSVFloatMatchesStrconv(t *testing.T) {
	for _, s := range parseFloatCases {
		checkParseCSVFloat(t, s)
	}
}

// FuzzParseFloatMatchesStrconv holds the CSV reader's float parser to
// strconv on arbitrary text.
func FuzzParseFloatMatchesStrconv(f *testing.F) {
	for _, s := range parseFloatCases {
		f.Add(s)
	}
	f.Fuzz(checkParseCSVFloat)
}

// TestPow10TableFloorsForParse is the fact parseFloat rests on: every
// entry of pow10Table less one is exactly ⌊10^e · 2^k⌋ with k = 127 −
// ⌊log₂ 10^e⌋, the truncated power of ten Eisel–Lemire multiplies by.
func TestPow10TableFloorsForParse(t *testing.T) {
	one := big.NewInt(1)
	for i, g := range pow10Table {
		e := i + pow10TableMin
		x := new(big.Rat).Mul(ratPow10(e), ratPow2(127-floorLog2Pow10(e)))
		want := new(big.Int).Quo(x.Num(), x.Denom())
		got := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 64)
		got.Or(got, new(big.Int).SetUint64(g[1]))
		got.Sub(got, one)
		if got.Cmp(want) != 0 {
			t.Errorf("10^%d: entry − 1 = %#x, ⌊10^e·2^k⌋ = %#x", e, got, want)
		}
	}
}

// TestParseFloatRandom holds parseCSVFloat to strconv on random float64
// bits as the CSV writer prints them and in %e at every precision the
// kernel reads, on the writer's typical values, and on random digit
// strings of up to 21 digits. parseFloat must take every printed normal
// float whose digits the table covers, not leave it to strconv, unless the
// digits are the float exactly or halfway to a neighbour: there the
// truncated product cannot tell which side it is on, and strconv's own
// Eisel–Lemire gives up too.
func TestParseFloatRandom(t *testing.T) {
	n := 100000
	if testing.Short() || raceEnabled {
		n = 10000
	}
	r := rand.New(rand.NewSource(5))
	digits := make([]byte, 0, 32)
	for i := 0; i < n; i++ {
		for _, v := range []float64{math.Float64frombits(r.Uint64()), r.ExpFloat64() / 1000, float64(r.Int63n(1e6)) / 1e3} {
			s := appendFloatG(nil, v)
			checkParseCSVFloat(t, string(s))
			if _, ok := parseFloat(s); !ok && kernelReads(v) && !exactOrTie(s, v) {
				t.Errorf("parseFloat(%q) left to strconv", s)
			}
			checkParseCSVFloat(t, strconv.FormatFloat(v, 'e', r.Intn(19), 64))
		}
		digits = digits[:0]
		if r.Intn(2) == 0 {
			digits = append(digits, '-')
		}
		nd, dot := 1+r.Intn(21), r.Intn(23)
		for j := 0; j < nd; j++ {
			if j == dot {
				digits = append(digits, '.')
			}
			digits = append(digits, byte('0'+r.Intn(10)))
		}
		if r.Intn(2) == 0 {
			digits = append(append(digits, 'e'), strconv.Itoa(r.Intn(700)-350)...)
		}
		checkParseCSVFloat(t, string(digits))
	}
}

// kernelReads reports whether v is normal and the last of its shortest
// digits has an exponent in the table.
func kernelReads(v float64) bool {
	u := math.Float64bits(v)
	if exp := u >> 52 & 0x7ff; exp == 0 || exp == 0x7ff {
		return false
	}
	_, e := shortestDecimal(u)
	return e >= pow10TableMin
}

// exactOrTie reports whether the decimal s is the finite v exactly or lies
// halfway between v and a neighbour.
func exactOrTie(s []byte, v float64) bool {
	x, ok := new(big.Rat).SetString(string(s))
	if !ok {
		panic(string(s))
	}
	fv := new(big.Rat).SetFloat64(v)
	d := new(big.Rat).Sub(x, fv)
	if d.Sign() == 0 {
		return true
	}
	n := math.Nextafter(v, math.Inf(d.Sign()))
	if math.IsInf(n, 0) {
		return false
	}
	next := new(big.Rat).SetFloat64(n)
	half := next.Sub(next, fv)
	half.Quo(half, big.NewRat(2, 1))
	return d.Cmp(half) == 0
}

// goldenFloatFields returns the float fields (arrival, start, duration,
// util) of a preset's golden trace.
func goldenFloatFields(tb testing.TB, preset string) [][]byte {
	tb.Helper()
	data, err := os.ReadFile("../spec/testdata/" + preset + ".golden.csv")
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	var fields [][]byte
	for _, row := range rows[1:] {
		for _, c := range []int{3, 5, 6, 11} {
			fields = append(fields, []byte(row[c]))
		}
	}
	return fields
}

// TestParseFloatTakesPresetFields: every float field of every preset's
// golden trace is read by the kernel, none by the strconv fallback.
func TestParseFloatTakesPresetFields(t *testing.T) {
	for _, preset := range []string{"analytics", "chat", "incast", "mapreduce", "rag", "webtier"} {
		fields := goldenFloatFields(t, preset)
		for _, f := range fields {
			if _, ok := parseFloat(f); !ok {
				t.Errorf("%s: parseFloat(%q) left to strconv", preset, f)
			}
			checkParseCSVFloat(t, string(f))
		}
		if len(fields) == 0 {
			t.Errorf("%s: no float fields", preset)
		}
	}
}

// BenchmarkParseFloat prices the float fields of the mapreduce golden
// trace through the kernel and through strconv, in ns/field.
func BenchmarkParseFloat(b *testing.B) {
	fields := goldenFloatFields(b, "mapreduce")
	parsers := []struct {
		name  string
		parse func([]byte) (float64, error)
	}{
		{"kernel", parseCSVFloat},
		{"strconv", func(f []byte) (float64, error) { return strconv.ParseFloat(string(f), 64) }},
	}
	for _, p := range parsers {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range fields {
					if _, err := p.parse(f); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(fields)), "ns/field")
		})
	}
}
