package decfloat

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ---- Parse against the JSON number grammar and strconv ----

// refParse is Parse's specification: a scanner for the grammar, written
// the plain way, then strconv.ParseFloat over what it spanned.
func refParse(b []byte) (f float64, n int, ok bool) {
	i := 0
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return f, i, true
}

func checkParse(t *testing.T, b []byte) {
	t.Helper()
	f, n, ok := Parse(b)
	wf, wn, wok := refParse(b)
	if ok != wok || ok && (n != wn || math.Float64bits(f) != math.Float64bits(wf)) {
		t.Fatalf("Parse(%q) = %v (%#x), %d, %v; want %v (%#x), %d, %v",
			b, f, math.Float64bits(f), n, ok, wf, math.Float64bits(wf), wn, wok)
	}
}

// parseSeeds are the texts where a number parser goes wrong: the ends of
// the range, the 19-digit limit of the fast path, midpoints between two
// floats, and every way to break the grammar.
var parseSeeds = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "0E-0", "0e999", "-0e-999", "1", "-1", "10", "1.5", "0.1", "0.5", "100", "1e21", "1e22", "1e23",
	"5e-324", "4.9e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "2e-324", "1e-324", "1e-400",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "2.225073858507201e-308", "1e-308", "1e-342", "1e-343",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.797693134862315708e308", "1.7976931348623159e308", "1e308", "1e309", "-1e309", "1e999", "1e99999999999999999999",
	"0.000001", "1e-6", "9.999999999999999e-7", "999999999999999900000", "123456789012345680000",
	// Nineteen digits, twenty, many; leading zeros that do not count.
	"1234567890123456789", "9999999999999999999", "12345678901234567890", "18446744073709551615", "18446744073709551616",
	"0.1234567890123456789", "0.0001234567890123456789", "0.00000000000000000001234567890123456789", "0.12345678901234567891",
	"123456789012345678901234567890", "0.1234567890123456789012345678901234567890", "1.00000000000000000000000000000000000001",
	"0.000000000000000000000000000000000000000000000000000001", "1000000000000000000000000000000e-30",
	// Halfway between two floats, and one digit to either side.
	"9007199254740993", "9007199254740992.5", "9007199254740993.0000000000000000001", "9007199254740995", "9007199254740991.5",
	"1.00000000000000011102230246251565404236316680908203125", "1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126", "4503599627370496.5", "4503599627370497.5",
	"8.41e21", "2.2250738585072012e-308", "6.9294956446009195e15", "3.2819012219932820e14", "1e23", "8.5e22",
	// Scanner behaviour: where the number ends, and what is no number.
	"01", "-01", "00", "1.", "1.e5", ".5", "+1", "-", "", "-.5", "1e", "1e+", "1e-", "1E+5", "1e05", "1e+05x", "1.5.5", "1ee5", "1e5e5",
	"0x10", "1_000", "Infinity", "-Infinity", "NaN", "inf", "1,2", "1]", "12 ", "1.25e2}", "-1e-2,", "0.", "0e", "0.e1", "-e", "1.0e0 ",
	// Zeros of every spelling.
	"0e5", "-0e5", "0.000e-5", "-0.0e22",
}

// digitRunSeeds are the texts where eight-at-a-time reading goes wrong:
// runs one short of, at and past each multiple of eight (and the 19 that
// still fit a uint64), runs ending in the buffer's last eight bytes, and
// the bytes on either side of the digits in ASCII — '/' and ':' — and
// with the top bit set (0xB0–0xB9, whose low nibbles are digits).
func digitRunSeeds() []string {
	const digits = "98765432109876543210"
	var s []string
	for _, n := range []int{7, 8, 9, 15, 16, 17, 19, 20} {
		run := digits[:n]
		s = append(s, run, "-"+run, run+",", "0."+run, "1."+run+"e-3", run+"."+run,
			run[:n/2]+"."+run[n/2:], "0.0"+run+"]", "1e"+run[:min(n, 3)]+strings.Repeat("0", 7))
	}
	for _, tail := range []string{"/", ":", "\xb0", "\xb9", "\xb5\xb5\xb5\xb5\xb5\xb5\xb5\xb5", "/////////", "::::::::"} {
		for _, n := range []int{1, 7, 8, 9, 15, 16} {
			run := digits[:n]
			s = append(s, run+tail, run+tail+"12345678", "0."+run+tail, "1."+run+tail+"9", run[:1]+tail+run)
			for j := 1; j < n; j++ { // the odd byte inside an eight-byte word
				s = append(s, run[:j]+tail[:1]+run[j:]+"12345678")
			}
		}
	}
	return s
}

// exactEdgeSeeds are the edges of exact float64 arithmetic: mantissas
// either side of 2^53 with exponents either side of ±22 (10^22 is the
// largest power of ten a float64 holds), in both spellings.
func exactEdgeSeeds() []string {
	var s []string
	for _, m := range []string{"9007199254740991", "9007199254740992", "9007199254740993", "1", "3", "4503599627370497"} {
		for _, e := range []string{"22", "-22", "23", "-23", "0", "-1", "15", "-15"} {
			s = append(s, m+"e"+e, "-"+m+"e"+e, m[:1]+"."+m[1:]+"e"+e)
		}
	}
	return s
}

func TestParseSeeds(t *testing.T) {
	for _, s := range parseSeeds {
		checkParse(t, []byte(s))
	}
	for _, s := range digitRunSeeds() {
		checkParse(t, []byte(s))
	}
	for _, s := range exactEdgeSeeds() {
		checkParse(t, []byte(s))
	}
}

// TestParseShortestTexts parses what clients send: shortest texts of
// random floats, uniform over bit patterns and over the decades the
// workloads live in, in both spellings.
func TestParseShortestTexts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 400_000
	if testing.Short() {
		n = 40_000
	}
	var buf []byte
	for i := 0; i < n; i++ {
		f := math.Float64frombits(r.Uint64())
		if i&1 == 0 {
			f = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkParse(t, AppendShortest(buf[:0], f))
		checkParse(t, strconv.AppendFloat(buf[:0], f, 'e', -1, 64))
	}
}

// TestParseRandomDigits covers texts that are nobody's shortest form: a
// random digit count on either side of the fast path's limit.
func TestParseRandomDigits(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	var buf []byte
	for i := 0; i < n; i++ {
		buf = buf[:0]
		if r.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		nd, point := 1+r.Intn(24), r.Intn(26)-1
		for j := 0; j < nd; j++ {
			if j == point {
				if j == 0 {
					buf = append(buf, '0')
				}
				buf = append(buf, '.')
			}
			c := byte('0' + r.Intn(10))
			if j == 0 && point != 0 && c == '0' {
				c = '1'
			}
			buf = append(buf, c)
		}
		if r.Intn(3) > 0 {
			buf = append(buf, 'e')
			buf = strconv.AppendInt(buf, int64(r.Intn(700)-350), 10)
		}
		checkParse(t, buf)
	}
}

func FuzzParse(f *testing.F) {
	for _, s := range slices.Concat(parseSeeds, digitRunSeeds(), exactEdgeSeeds()) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkParse(t, b) })
}

// ---- AppendShortest against encoding/json ----

func checkAppend(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	// A prefix shows that the text goes after what is there, and a tight
	// buffer that room is made for it.
	got := AppendShortest(make([]byte, 1, 1), f)
	if string(got[1:]) != string(want) {
		t.Fatalf("AppendShortest(%#x) = %s, encoding/json writes %s", math.Float64bits(f), got[1:], want)
	}
}

// appendSeeds are the floats where the layout changes (1e-6, 1e21), where
// the rounding interval is lopsided (powers of two), where digits end in
// zeros (powers of ten, integers), and the ends of the range.
func appendSeeds() []float64 {
	s := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.5, 1.0 / 3, 2.0 / 3, 100, 42, 1e-6, 9.999999999999999e-7, 1.0000000000000002e-6, 1e-7, 1.5e-7,
		0.000001234567890123456, 0.0000011, 1e20, 1e21, 999999999999999900000, 1.0000000000000001e21, 1.5e21, 1e22, 1e23, 8.41e21, 123456789012345680000,
		12345.678e3, 1 << 53, 1<<53 + 2, 1<<53 - 1, 9007199254740993, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e100, 1e-100, -1e-7, -1e21, 9.5367431640625e-7, 5e-7, 4.35e-9, 1.7e308, 9e15, 9.007199254740991e15,
		299792458, 6.02214076e23, 6.62607015e-34, 1.2345678901234567, 12.345678901234567, 1234567890123456.7, 0.30000000000000004}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		s = append(s, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for e := -323; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		s = append(s, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), 5*p, 9*p)
	}
	s = append(s, everyLength()...)
	return slices.DeleteFunc(s, func(f float64) bool { return math.IsInf(f, 0) }) // 9e308
}

// everyLength returns a float whose shortest text has n digits, for n
// from 1 to 17, in each of AppendShortest's layouts: d.ddde-x, 0.000ddd,
// dd.ddd, ddd000 and d.ddde+x.
func everyLength() []float64 {
	const digits = "12345678912345678"
	var s []float64
	for n := 1; n <= 17; n++ {
		for _, pt := range []int{-9, -5, 0, n / 2, n, 21, 22, 300} {
			// 0.d₁…dₙ × 10^pt, then the nearest float at or above whose
			// shortest text has n digits: a 16- or 17-digit text may name
			// a float that a shorter one names too.
			f, _ := strconv.ParseFloat("0."+digits[:n]+"e"+strconv.Itoa(pt), 64)
			for range 1000 {
				if shortestDigits(f) == n {
					s = append(s, f)
					break
				}
				f = math.Nextafter(f, math.Inf(1))
			}
		}
	}
	return s
}

// shortestDigits is the number of significant digits in f's shortest
// text.
func shortestDigits(f float64) int {
	m := strconv.FormatFloat(f, 'e', -1, 64)
	m = m[:strings.IndexByte(m, 'e')]
	return len(strings.Replace(m, ".", "", 1))
}

// TestAppendShortestEveryLength checks that everyLength, whose floats
// TestAppendShortestSeeds compares with encoding/json, covers what it
// says: each digit count in each layout.
func TestAppendShortestEveryLength(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, f := range everyLength() {
		n := shortestDigits(f)
		text := string(AppendShortest(nil, f))
		layout := 0
		switch {
		case strings.Contains(text, "e-"):
			layout = 1
		case strings.Contains(text, "e+"):
			layout = 5
		case strings.HasPrefix(text, "0."):
			layout = 2
		case strings.Contains(text, "."):
			layout = 3
		default:
			layout = 4
		}
		seen[[2]int{n, layout}] = true
	}
	for n := 1; n <= 17; n++ {
		for layout := 1; layout <= 5; layout++ {
			if layout == 3 && n == 1 { // one digit has no point to place
				continue
			}
			if !seen[[2]int{n, layout}] {
				t.Errorf("no %d-digit float in layout %d", n, layout)
			}
		}
	}
}

func TestAppendShortestSeeds(t *testing.T) {
	for _, f := range appendSeeds() {
		checkAppend(t, f)
		checkAppend(t, -f)
	}
	for f, want := range map[float64]string{math.Inf(1): "+Inf", math.Inf(-1): "-Inf", math.NaN(): "NaN"} {
		if got := string(AppendShortest(nil, f)); got != want {
			t.Errorf("AppendShortest(%v) = %q", f, got)
		}
	}
}

func TestAppendShortestRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 400_000
	if testing.Short() {
		n = 40_000
	}
	for i := 0; i < n; i++ {
		f := math.Float64frombits(r.Uint64())
		switch i & 3 {
		case 1: // the decades the workloads live in
			f = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
		case 2: // few digits
			f = float64(r.Intn(1e6)) / math.Pow(10, float64(r.Intn(8)))
		case 3: // integers and halves
			f = float64(r.Int63n(1<<54)) / 2
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkAppend(t, f)
	}
}

func FuzzAppendShortest(f *testing.F) {
	for _, s := range appendSeeds() {
		f.Add(math.Float64bits(s))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		checkAppend(t, v)
		// And back: the text is a number Parse reads as the same float.
		text := AppendShortest(nil, v)
		if back, n, ok := Parse(text); !ok || n != len(text) || math.Float64bits(back) != bits {
			t.Fatalf("Parse(%s) = %v, %d, %v; want %#x whole", text, back, n, ok, bits)
		}
	})
}

func TestAllocs(t *testing.T) {
	text := []byte("-0.00012345678901234567,")
	dst := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		f, _, _ := Parse(text)
		dst = AppendShortest(dst[:0], f)
	}); n != 0 {
		t.Errorf("%v allocations per Parse+AppendShortest", n)
	}
	// The strconv fallback allocates nothing either.
	long := []byte("0.1234567890123456789012345678901234567890")
	if n := testing.AllocsPerRun(100, func() { Parse(long) }); n != 0 {
		t.Errorf("%v allocations per fallback Parse", n)
	}
}

var (
	sinkF float64
	sinkB []byte
)

// The package's own benchmarks run on uniform random floats (seventeen
// digits, every exponent); BenchmarkFloatCodec at the repository root
// runs on the service's real vectors and is the gated one.
func BenchmarkParse(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	var texts [1024][]byte
	for i := range texts {
		texts[i] = AppendShortest(nil, math.Float64frombits(r.Uint64()&^(1<<62))) // bit 62 clear: finite
	}
	b.Run("decfloat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF, _, _ = Parse(texts[i%len(texts)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF, _ = strconv.ParseFloat(string(texts[i%len(texts)]), 64)
		}
	})
}

func BenchmarkAppendShortest(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	var fs [1024]float64
	for i := range fs {
		fs[i] = math.Float64frombits(r.Uint64() &^ (1 << 62)) // finite
	}
	buf := make([]byte, 0, 64)
	b.Run("decfloat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkB = AppendShortest(buf[:0], fs[i%len(fs)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkB = strconv.AppendFloat(buf[:0], fs[i%len(fs)], 'e', -1, 64)
		}
	})
}
