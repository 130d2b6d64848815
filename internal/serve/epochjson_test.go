package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"cloudia/internal/wal"
)

// oracleEpoch decodes body the way the front end did before decodeEpoch:
// the reference decodeEpoch must agree with.
func oracleEpoch(body []byte) (epochRequest, error) {
	var req epochRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// epochDiff describes how two decoded requests differ, or returns "".
// Values compare bit for bit, so -0 and 0 differ.
func epochDiff(got, want epochRequest) string {
	if got.Tenant != want.Tenant {
		return fmt.Sprintf("tenant %q, want %q", got.Tenant, want.Tenant)
	}
	if got.N != want.N {
		return fmt.Sprintf("n %d, want %d", got.N, want.N)
	}
	if math.Float64bits(got.TailPct) != math.Float64bits(want.TailPct) {
		return fmt.Sprintf("tail_pct %v, want %v", got.TailPct, want.TailPct)
	}
	if d := rowsDiff(got.Rows, want.Rows); d != "" {
		return "rows: " + d
	}
	if d := rowsDiff(got.TailRows, want.TailRows); d != "" {
		return "tail_rows: " + d
	}
	return ""
}

func rowsDiff(got, want []wal.RowDelta) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Row != want[i].Row {
			return fmt.Sprintf("element %d is row %d, want %d", i, got[i].Row, want[i].Row)
		}
		g, w := got[i].Values, want[i].Values
		if len(g) != len(w) {
			return fmt.Sprintf("element %d has %d values, want %d", i, len(g), len(w))
		}
		for j := range g {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				return fmt.Sprintf("element %d value %d is %v, want %v", i, j, g[j], w[j])
			}
		}
	}
	return ""
}

// shortReader returns at most n bytes per Read.
type shortReader struct {
	r io.Reader
	n int
}

func (s shortReader) Read(p []byte) (int, error) {
	return s.r.Read(p[:min(len(p), s.n)])
}

// decodeAllWays decodes body through the production window and through
// tiny windows fed by readers that return a byte or a few at a time, so
// every token also straddles refills and outgrows the window. With 7-byte
// reads into a 64-byte window, numbers end inside the bytes read so far,
// end exactly at their edge, and straddle it, without the window growing.
func decodeAllWays(body []byte) map[string]func() (epochRequest, error) {
	return map[string]func() (epochRequest, error){
		"whole": func() (epochRequest, error) { return decodeEpoch(bytes.NewReader(body)) },
		"one-byte reads, 4-byte window": func() (epochRequest, error) {
			return newEpochDecoder(iotest.OneByteReader(bytes.NewReader(body)), 4).request()
		},
		"half reads, data with EOF, 16-byte window": func() (epochRequest, error) {
			return newEpochDecoder(iotest.DataErrReader(iotest.HalfReader(bytes.NewReader(body))), 16).request()
		},
		"7-byte reads, 64-byte window": func() (epochRequest, error) {
			return newEpochDecoder(shortReader{bytes.NewReader(body), 7}, 64).request()
		},
	}
}

// FuzzEpochDecode checks decodeEpoch against encoding/json: the same
// bodies accepted, and on acceptance the same tenant, n and tail_pct and
// bit-identical rows. The seed corpus in testdata/fuzz/FuzzEpochDecode
// covers the schema's corners; run `make fuzz` to explore beyond it.
func FuzzEpochDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if d := oracleDiff(body); d != "" {
			t.Fatal(d)
		}
	})
}

// oracleDiff decodes body every way decodeAllWays knows and with
// encoding/json, and describes the first disagreement, or returns "".
func oracleDiff(body []byte) string {
	want, wantErr := oracleEpoch(body)
	for name, decode := range decodeAllWays(body) {
		got, err := decode()
		if (err == nil) != (wantErr == nil) {
			return fmt.Sprintf("%s: decodeEpoch error %v, encoding/json error %v", name, err, wantErr)
		}
		if err == nil {
			if d := epochDiff(got, want); d != "" {
				return name + ": " + d
			}
		}
	}
	return ""
}

// TestEpochDecodeDepthLimit checks nesting at and one past encoding/json's
// depth limit, in unknown members of the request and of a row (the
// request object is the first level). The bodies are too large to be
// useful fuzz seeds.
func TestEpochDecodeDepthLimit(t *testing.T) {
	for _, levels := range []int{maxDepth - 1, maxDepth} {
		for _, body := range []string{
			`{"x":` + strings.Repeat("[", levels) + strings.Repeat("]", levels) + `}`,
			`{"rows":[{"x":` + strings.Repeat(`{"a":`, levels-2) + `1` + strings.Repeat("}", levels-2) + `}]}`,
		} {
			if d := oracleDiff([]byte(body)); d != "" {
				t.Fatalf("%d levels: %s", levels, d)
			}
		}
	}
}

// TestEpochDecodeErrors pins where rejections point: syntax and type
// errors name their byte offset, and a failing reader's own error comes
// through for the handler to map (a *http.MaxBytesError becomes 413).
func TestEpochDecodeErrors(t *testing.T) {
	cases := []struct {
		body   string
		offset int
	}{
		{`{"n":01}`, 5},
		{`{"n":1 "x"}`, 7},
		{`{"rows":[{"values":[1 2]}]}`, 22},
		{`{"tenant":"a` + "\x01" + `"}`, 12},
		{`{"tenant":"\u12x4"}`, 15},
		{`{"n":nul}`, 8},
		{`{"n":"5"}`, 5},
		{`{"n":1e2}`, 5},
		{`{"rows":[{"values":[1e999]}]}`, 20},
		{`{"x":` + strings.Repeat("[", maxDepth), 10004},
		{`{"x":{"a":1,}}`, 12},
		{`{"n":1`, 6},
		{``, 0},
	}
	for _, tc := range cases {
		_, err := decodeEpoch(strings.NewReader(tc.body))
		if want := fmt.Sprintf(" at byte offset %d", tc.offset); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%q: error %v, want one ending %q", tc.body, err, want)
		}
	}

	boom := errors.New("connection reset")
	_, err := decodeEpoch(io.MultiReader(strings.NewReader(`{"n":3,"rows":[`), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) {
		t.Fatalf("reader failure surfaced as %v, want %v", err, boom)
	}
	// A reader that keeps returning nothing is cut off, not spun on.
	_, err = decodeEpoch(iotest.ErrReader(nil))
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("stalled reader surfaced as %v, want io.ErrNoProgress", err)
	}
}

// TestEpochDecodeNumberErrors pins the whole message for numbers the
// decoder refuses, every way decodeAllWays reads the body: a valid number
// that runs on into bytes a number can contain names the whole run, at
// the offset where it starts, as do numbers cut short and numbers too
// large for a float64.
func TestEpochDecodeNumberErrors(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"rows":[{"values":[0.5,1.5.3]}]}`, `invalid number literal "1.5.3" at byte offset 24`},
		{`{"rows":[{"values":[2e5e1]}]}`, `invalid number literal "2e5e1" at byte offset 20`},
		{`{"tail_pct":1-2}`, `invalid number literal "1-2" at byte offset 12`},
		{`{"rows":[{"values":[7,01]}]}`, `invalid number literal "01" at byte offset 22`},
		{`{"rows":[{"values":[-]}]}`, `invalid number literal "-" at byte offset 20`},
		{`{"rows":[{"values":[1.]}]}`, `invalid number literal "1." at byte offset 20`},
		{`{"rows":[{"values":[0.123456789012e+]}]}`, `invalid number literal "0.123456789012e+" at byte offset 20`},
		{`{"rows":[{"values":[1.5,1.2345678e5e]}]}`, `invalid number literal "1.2345678e5e" at byte offset 24`},
		{`{"rows":[{"values":[1,1.5e999]}]}`, `cannot decode number 1.5e999 into values element (a number) at byte offset 22`},
		{`{"tail_pct":-1e400}`, `cannot decode number -1e400 into tail_pct (a number) at byte offset 12`},
		{`{"rows":[{"values":[1,2.5`, `unexpected end of JSON input at byte offset 25`},
	} {
		for name, decode := range decodeAllWays([]byte(tc.body)) {
			if _, err := decode(); err == nil || err.Error() != tc.want {
				t.Errorf("%s: %q: error %v, want %q", name, tc.body, err, tc.want)
			}
		}
	}
}

// TestEpochDecodePresizeGuard checks that only rows matching the first
// row's length are pre-sized: a long first row followed by short ones
// must not reserve the long length for each of them.
func TestEpochDecodePresizeGuard(t *testing.T) {
	long := strings.TrimSuffix(strings.Repeat("0,", 4096), ",")
	body := `{"rows":[{"values":[` + long + `]},{"values":[1]},{"values":[2]},{"values":[3]}]}`
	req, err := decodeEpoch(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i, rd := range req.Rows[2:] {
		if cap(rd.Values) != 1 {
			t.Fatalf("row %d: %d values in a slice of capacity %d", i+2, len(rd.Values), cap(rd.Values))
		}
	}
}

// denseEpochBody encodes a full n-instance epoch the way a client posts
// one: every row, shortest round-trip decimal for each value.
func denseEpochBody(n int) []byte {
	m := testMatrix(rand.New(rand.NewSource(5)), n)
	buf := []byte(`{"tenant":"bench","n":` + strconv.Itoa(n) + `,"rows":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"row":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"values":[`...)
		for j, v := range m.Row(i) {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, "]}"...)
	}
	return append(buf, "]}"...)
}

func TestEpochDecodeDenseMatchesOracle(t *testing.T) {
	body := denseEpochBody(200)
	want, err := oracleEpoch(body)
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range decodeAllWays(body) {
		got, err := decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := epochDiff(got, want); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
}

var epochSink epochRequest

// BenchmarkEpochDecode decodes the body of a full 1000-instance epoch:
// 10⁶ values, about 19 MB, the cold-start POST.
func BenchmarkEpochDecode(b *testing.B) {
	body := denseEpochBody(1000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := decodeEpoch(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		epochSink = req
	}
}
