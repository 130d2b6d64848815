package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// parseNumber is scanNumber on a whole token: it converts b to the
// float64 that strconv.ParseFloat(string(b), 64) returns, bit for bit.
// valid is false when b is not exactly one JSON number (validNumber's
// grammar); inRange is false when it is one but its magnitude overflows a
// float64.
func parseNumber(b []byte) (v float64, valid, inRange bool) {
	v, n, ok, inRange := scanNumber(b)
	if !ok || n != len(b) {
		return 0, false, false
	}
	return v, true, inRange
}

// parseNumberOracle is the reference parseNumber must match: the JSON
// grammar check, then strconv.
func parseNumberOracle(b []byte) (v float64, valid, inRange bool) {
	if !validNumber(b) {
		return 0, false, false
	}
	v, err := strconv.ParseFloat(string(b), 64)
	return v, true, err == nil
}

// parseNumberDiff describes how parseNumber and the oracle disagree on s,
// or returns "". Accepted values compare bit for bit, so -0 and 0 differ.
func parseNumberDiff(s string) string {
	got, gotValid, gotInRange := parseNumber([]byte(s))
	want, wantValid, wantInRange := parseNumberOracle([]byte(s))
	if gotValid != wantValid || gotInRange != wantInRange {
		return fmt.Sprintf("%q: valid %v, in range %v; want %v, %v", s, gotValid, gotInRange, wantValid, wantInRange)
	}
	if wantValid && math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("%q: %v (%#x), want %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

// scanNumberDiff describes how scanNumber, the decoder's in-window entry
// point, disagrees with the rule the decoder must follow on b, or returns
// "". The number is numberToken's: the longest run of number bytes at b's
// head. When that run is one JSON number, the scan must return its exact
// length and strconv's bits for it; otherwise it must decline.
func scanNumberDiff(b []byte) string {
	run := 0
	for run < len(b) && numberByte[b[run]] {
		run++
	}
	want, wantValid, wantInRange := parseNumberOracle(b[:run])
	got, n, ok, inRange := scanNumber(b)
	switch {
	case ok != wantValid:
		return fmt.Sprintf("%q: scan ok %v, want %v", b, ok, wantValid)
	case !ok:
		return ""
	case n != run || inRange != wantInRange:
		return fmt.Sprintf("%q: scan read %d bytes, in range %v; want %d, %v", b, n, inRange, run, wantInRange)
	case math.Float64bits(got) != math.Float64bits(want):
		return fmt.Sprintf("%q: scan %v (%#x), want %v (%#x)", b, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

// scanSuffixes follow each hand case in TestParseNumberCases: bytes that
// end a number in a body, and bytes a number can contain that make most
// cases invalid.
var scanSuffixes = []string{",", "]", " ", "}", "0", ".", "e", "-", "+", ".5", "e5"}

// parseNumberCases are the corners of parseNumber's grammar and of each
// of its conversion paths, by hand. valid and inRange are what both
// parseNumber and the oracle must say.
var parseNumberCases = []struct {
	s              string
	valid, inRange bool
}{
	// Zeros and signs.
	{"0", true, true},
	{"-0", true, true},
	{"-0.0", true, true},
	{"0e5", true, true},
	{"-0E-5", true, true},
	{"0.000000000000000000000000000000000000000000000000000000000000001234", true, true},
	{"-0.000000000000000000000000000000000000000000000000000000000000000000000000001234", true, true},
	// The exact path and its edges: 2^53 itself, |exp| = 22.
	{"1", true, true},
	{"-2.5", true, true},
	{"9007199254740992", true, true},
	{"1e22", true, true},
	{"123e-22", true, true},
	{"1e-22", true, true},
	// Just past the exact path: 2^53±1, |exp| = 23. 2^53+1 and 4e23 are
	// halfway between two float64s, which Eisel-Lemire refuses to round.
	{"9007199254740991", true, true},
	{"9007199254740993", true, true},
	{"9007199254740994", true, true},
	{"9007199254740995", true, true},
	{"1e23", true, true},
	{"4e23", true, true},
	{"123e-23", true, true},
	// Eisel-Lemire: a plain case, the wider approximation taken and
	// refused, and a round-up that carries into the exponent.
	{"1443635317331776148e-51", true, true},
	{"2129038907e-55", true, true},
	{"967368417128397320e-1", true, true},
	{"1751623080406021338e-64", true, true},
	// The table's ends, and one past them.
	{"1e-64", true, true},
	{"9999999999999999999e64", true, true},
	{"1e-65", true, true},
	{"1e65", true, true},
	// 19 and 20 significant digits: the twentieth is dropped when zero
	// and sends the number to strconv otherwise.
	{"1234567890123456789", true, true},
	{"9999999999999999999", true, true},
	{"1.234567890123456789", true, true},
	{"12345678901234567890", true, true},
	{"12345678901234567891", true, true},
	{"99999999999999999999", true, true},
	{"1.0000000000000000000", true, true},
	{"0.000123456789012345678901", true, true},
	{"0.00000000123456789", true, true},
	// Where scanDigits takes eight digits in one load: exactly 8, 16 and
	// 19 digits, and loads that meet a non-digit — the end of the number,
	// an exponent, a separator, and the bytes on either side of '0'-'9'
	// and one that carries out of the digit test's addition.
	{"12345678", true, true},
	{"0.12345678", true, true},
	{"0.1234567812345678", true, true},
	{"0.1234567890123456789", true, true},
	{"1234567812345678.5", true, true},
	{"1.2345678e5", true, true},
	{"9.87654321", true, true},
	{"9.87654321,", false, false},
	{"1.2345678,", false, false},
	{"0.1234567/8", false, false},
	{"0.1234567:8", false, false},
	{"0.123\xfa45678", false, false},
	{"1.2345678-5", false, false},
	// Subnormals, underflow to zero, the largest float64, and overflow.
	{"5e-324", true, true},
	{"4.9406564584124654e-324", true, true},
	{"2e-324", true, true},
	{"2.2250738585072011e-308", true, true},
	{"1e-400", true, true},
	{"1.7976931348623157e308", true, true},
	{"-1.7976931348623157e308", true, true},
	{"1e309", true, false},
	{"-1e309", true, false},
	{"1e99999999999", true, false},
	// Not JSON numbers.
	{"", false, false},
	{"-", false, false},
	{"+1", false, false},
	{"01", false, false},
	{"-01", false, false},
	{"00", false, false},
	{"1.", false, false},
	{".5", false, false},
	{"-.5", false, false},
	{"1.e5", false, false},
	{"1e", false, false},
	{"1e+", false, false},
	{"1e-", false, false},
	{"1e5.5", false, false},
	{"1-", false, false},
	{"1.5e+5-", false, false},
	{"--1", false, false},
	{"1ee5", false, false},
	{"1.2.3", false, false},
	{"1.5.3", false, false},
	{"2e5e1", false, false},
	{"1-2", false, false},
	{"Infinity", false, false},
}

func TestParseNumberCases(t *testing.T) {
	for _, tc := range parseNumberCases {
		if _, valid, inRange := parseNumber([]byte(tc.s)); valid != tc.valid || inRange != tc.inRange {
			t.Errorf("%q: valid %v, in range %v; want %v, %v", tc.s, valid, inRange, tc.valid, tc.inRange)
		}
		if d := parseNumberDiff(tc.s); d != "" {
			t.Error(d)
		}
		for _, suffix := range append(scanSuffixes, "") {
			if d := scanNumberDiff([]byte(tc.s + suffix)); d != "" {
				t.Error(d)
			}
		}
	}
}

// TestParseNumberProperty compares parseNumber with the oracle on about
// two million strings: random float64 bit patterns and ms-scale
// round-trip times with ±5% noise, each written with 'e', 'f' and 'g' at
// precision -1 (shortest) and 0–25, with both signs. Round-trip times,
// what epochs carry, are three in four of the values.
func TestParseNumberProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const values = 13000
	checked := 0
	for k := 0; k < values; k++ {
		var v float64
		if k%4 == 0 {
			v = math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		} else {
			base := []float64{0.05, 0.25, 1, 4, 30}[rng.Intn(5)]
			v = base * (1 + 0.05*(2*rng.Float64()-1))
		}
		v = math.Abs(v)
		var buf []byte
		for _, format := range []byte{'e', 'f', 'g'} {
			for prec := -1; prec <= 25; prec++ {
				for _, sign := range []float64{1, -1} {
					buf = strconv.AppendFloat(buf[:0], sign*v, format, prec, 64)
					if d := parseNumberDiff(string(buf)); d != "" {
						t.Fatal(d)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d strings agree", checked)
}

// TestPow10TablePinned checks pow10Table, built at init, against rows of
// strconv's detailedPowersOfTen copied as literals.
func TestPow10TablePinned(t *testing.T) {
	for _, tc := range []struct {
		exp10 int
		want  [2]uint64
	}{
		{-64, [2]uint64{0x3F2398D747B36224, 0xA87FEA27A539E9A5}},
		{-1, [2]uint64{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}},
		{0, [2]uint64{0x0000000000000000, 0x8000000000000000}},
		{22, [2]uint64{0x0000000000000000, 0x878678326EAC9000}},
		{23, [2]uint64{0x0000000000000000, 0xA968163F0A57B400}},
		{64, [2]uint64{0x3CBF6B71C76B25FB, 0xC2781F49FFCFA6D5}},
	} {
		if got := pow10Table[tc.exp10-pow10TableMinExp10]; got != tc.want {
			t.Errorf("1e%d: %#x, want %#x", tc.exp10, got, tc.want)
		}
	}
}

// TestEiselLemireDirect covers what parseNumber never asks of
// eiselLemire64 — zero, which the exact path always takes — and checks
// the extremes of the table's range, which must stay normal float64s.
func TestEiselLemireDirect(t *testing.T) {
	if f, ok := eiselLemire64(0, 5, true); !ok || math.Float64bits(f) != 1<<63 {
		t.Fatalf("-0e5: %v, %v; want -0, true", f, ok)
	}
	if f, ok := eiselLemire64(0, 5, false); !ok || math.Float64bits(f) != 0 {
		t.Fatalf("0e5: %v, %v; want 0, true", f, ok)
	}
	for _, tc := range []struct {
		man   uint64
		exp10 int
	}{
		{1, pow10TableMinExp10},
		{math.MaxUint64, pow10TableMaxExp10},
		{math.MaxUint64, pow10TableMinExp10},
	} {
		s := strconv.FormatUint(tc.man, 10) + "e" + strconv.Itoa(tc.exp10)
		want, err := strconv.ParseFloat(s, 64)
		got, ok := eiselLemire64(tc.man, tc.exp10, false)
		if err != nil || ok && got != want {
			t.Errorf("%s: %v, %v; want %v (%v)", s, got, ok, want, err)
		}
	}
}

// FuzzParseNumber checks parseNumber against validNumber and
// strconv.ParseFloat directly, where FuzzEpochDecode reaches it only
// through whole bodies: the same strings accepted and the same bits. It
// then appends a byte and checks scanNumber, the in-window entry point, by
// scanNumberDiff: the token's exact length and strconv's bits, or a
// decline where the grammar refuses the token.
func FuzzParseNumber(f *testing.F) {
	for _, tc := range parseNumberCases {
		for _, c := range []byte{',', '5', 'e'} {
			f.Add(tc.s, c)
		}
	}
	f.Fuzz(func(t *testing.T, s string, c byte) {
		if d := parseNumberDiff(s); d != "" {
			t.Fatal(d)
		}
		if d := scanNumberDiff(append([]byte(s), c)); d != "" {
			t.Fatal(d)
		}
	})
}
