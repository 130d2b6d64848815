package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"cloudia/internal/wal"
)

// epochRequest is a decoded POST /v1/epoch body. The tags name the wire
// fields; decodeEpoch reads them.
type epochRequest struct {
	Tenant string         `json:"tenant"`
	N      int            `json:"n"`
	Rows   []wal.RowDelta `json:"rows"`
	// TailPct and TailRows post the epoch's percentile-matrix rows in the
	// same durability unit as the mean rows (see Daemon.AppendEpoch);
	// required before the tenant can be advised with a percentile metric.
	TailPct  float64        `json:"tail_pct,omitempty"`
	TailRows []wal.RowDelta `json:"tail_rows,omitempty"`
}

// decodeEpoch reads one epoch request from r in a single streaming pass.
//
// An epoch body is a dense n×n matrix of numbers — 10⁶ of them at 1000
// instances — so the decoder is written for that one schema rather than
// going through reflection: it scans a fixed window of the body by index,
// reads each number once where it lies in the window — checking it against
// the JSON number grammar, finding its end and converting it in the same
// pass (scanNumber, bit-identical to the strconv call encoding/json
// uses) — and appends it straight into the row's []float64.
// The window grows only when a single token (a key, the tenant, one
// number) is longer than it.
//
// It accepts exactly the bodies json.Decoder.Decode(&epochRequest{})
// accepts and yields the same values, including that decoder's quirks:
// keys match case-insensitively, the last duplicate wins, unknown members
// are skipped, null leaves a number or a row unchanged, and bytes after
// the object are not read. It checks syntax and types only; whether n,
// the rows and their values make sense is Daemon.AppendEpoch's call.
func decodeEpoch(r io.Reader) (epochRequest, error) {
	return newEpochDecoder(r, 64<<10).request()
}

// maxDepth is encoding/json's nesting limit, which the decoder shares so
// the two agree on deeply nested unknown members.
const maxDepth = 10000

var (
	requestFields = []string{"tenant", "n", "rows", "tail_pct", "tail_rows"}
	rowFields     = []string{"row", "values"}
)

// Indices into requestFields and rowFields.
const (
	fieldTenant = iota
	fieldN
	fieldRows
	fieldTailPct
	fieldTailRows
)

const (
	fieldRow = iota
	fieldValues
)

// numberByte marks the bytes a JSON number can contain; a number token is
// the longest run of them, checked against the grammar afterwards.
var numberByte = [256]bool{'+': true, '-': true, '.': true, 'e': true, 'E': true,
	'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true}

type epochDecoder struct {
	r   io.Reader
	buf []byte // the window; buf[pos:end] is read but not yet consumed
	pos int
	end int
	// base is the body offset of buf[0], so errors can name the offset.
	base int64
	// err ended the body: io.EOF, or the reader's failure (a
	// *http.MaxBytesError for an oversized body).
	err error
	// rowLen pre-sizes each row's values: the length every row decoded so
	// far has had. A row of another length sets it to -1 for good, so a
	// body cannot make the decoder reserve space it never fills.
	rowLen int
}

func newEpochDecoder(r io.Reader, window int) *epochDecoder {
	return &epochDecoder{r: r, buf: make([]byte, window)}
}

// errorAt reports a malformed body — a syntax error or a value of the
// wrong type — found at buf[i], naming its offset in the body.
func (d *epochDecoder) errorAt(i int, format string, args ...any) error {
	return fmt.Errorf(format+" at byte offset %d", append(args, d.base+int64(i))...)
}

// unexpected reports byte c at d.pos as the syntax or type error, with
// context saying what the decoder was looking for.
func (d *epochDecoder) unexpected(c byte, context string) error {
	return d.errorAt(d.pos, "unexpected %q %s", c, context)
}

// eof is the error for a body that ended inside a value: the reader's own
// error when it failed, else an unexpected end of input.
func (d *epochDecoder) eof() error {
	if d.err != io.EOF {
		return d.err
	}
	return d.errorAt(d.end, "unexpected end of JSON input")
}

// fill reads more of the body, first moving buf[keep:end] — the token in
// progress, or nothing — to the front of the window. It returns how far
// those bytes moved, for callers holding indices, and false once the body
// is exhausted.
func (d *epochDecoder) fill(keep int) (int, bool) {
	if d.err != nil {
		return 0, false
	}
	if keep > 0 {
		d.end = copy(d.buf, d.buf[keep:d.end])
		d.pos -= keep
		d.base += int64(keep)
	} else if d.end == len(d.buf) {
		// One token fills the window: widen the window to hold it.
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	for range 100 {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.err = err
		}
		if n > 0 {
			return keep, true
		}
		if err != nil {
			return keep, false
		}
	}
	d.err = io.ErrNoProgress
	return keep, false
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *epochDecoder) peek() (byte, error) {
	for {
		for ; d.pos < d.end; d.pos++ {
			if c := d.buf[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, nil
			}
		}
		if _, ok := d.fill(d.pos); !ok {
			return 0, d.eof()
		}
	}
}

// literal consumes word (true, false or null).
func (d *epochDecoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.pos == d.end {
			if _, ok := d.fill(d.pos); !ok {
				return d.eof()
			}
		}
		if c := d.buf[d.pos]; c != word[k] {
			return d.errorAt(d.pos, "unexpected %q in literal %s", c, word)
		}
		d.pos++
	}
	return nil
}

// str consumes a string token, checking its escapes, and returns it with
// its quotes. plain reports that its contents need no unquoting: no
// escapes and valid UTF-8. The slice aliases the window, so it is valid
// only until the next read.
func (d *epochDecoder) str() (raw []byte, plain bool, err error) {
	start, i := d.pos, d.pos+1
	escaped, high := false, false
	// esc is 0 in plain text, -1 after a backslash, and otherwise the
	// number of hex digits of a \u escape still due.
	esc := 0
	for {
		if i == d.end {
			shift, ok := d.fill(start)
			start, i = start-shift, i-shift
			if !ok {
				return nil, false, d.eof()
			}
			continue
		}
		c := d.buf[i]
		switch {
		case esc < 0:
			switch c {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				esc = 0
			case 'u':
				esc = 4
			default:
				return nil, false, d.errorAt(i, "unexpected %q in string escape code", c)
			}
		case esc > 0:
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
				return nil, false, d.errorAt(i, `unexpected %q in \u escape`, c)
			}
			esc--
		case c == '"':
			d.pos = i + 1
			raw = d.buf[start:d.pos]
			return raw, !escaped && (!high || utf8.Valid(raw)), nil
		case c == '\\':
			escaped, esc = true, -1
		case c < ' ':
			return nil, false, d.errorAt(i, "unexpected %q in string", c)
		case c >= utf8.RuneSelf:
			high = true
		}
		i++
	}
}

// unquote returns the contents of a string token from str.
func unquote(raw []byte, plain bool) (string, error) {
	if plain {
		return string(raw[1 : len(raw)-1]), nil
	}
	// Escapes and invalid UTF-8 are rare enough to leave to encoding/json,
	// which also fixes how invalid UTF-8 is replaced.
	var s string
	err := json.Unmarshal(raw, &s)
	return s, err
}

// numberRun finds the end of the run of number bytes that starts at
// buf[start] and has reached buf[i], reading more of the body while the
// run reaches the window's end and keeping buf[start:] in the window. It
// returns the run's bounds, moved as the window moved.
func (d *epochDecoder) numberRun(start, i int) (int, int) {
	for {
		for i < d.end && numberByte[d.buf[i]] {
			i++
		}
		if i < d.end {
			return start, i
		}
		shift, ok := d.fill(start)
		start, i = start-shift, i-shift
		if !ok {
			return start, i
		}
	}
}

// numberToken consumes the longest run of number bytes and returns it,
// not yet checked against the grammar. The slice aliases the window until
// the next read.
func (d *epochDecoder) numberToken() []byte {
	start, end := d.numberRun(d.pos, d.pos)
	d.pos = end
	return d.buf[start:end]
}

// number consumes a number token, checked against the grammar, and
// returns its bytes, which alias the window until the next read.
func (d *epochDecoder) number() ([]byte, error) {
	tok := d.numberToken()
	if !validNumber(tok) {
		return nil, d.invalidNumber(tok)
	}
	return tok, nil
}

// invalidNumber reports tok, the token just consumed, as no JSON number.
func (d *epochDecoder) invalidNumber(tok []byte) error {
	return d.errorAt(d.pos-len(tok), "invalid number literal %q", tok)
}

// validNumber reports whether b is exactly one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			return false
		}
	}
	return i == len(b)
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanNumber reads the JSON number at the head of b in one pass: it checks
// the grammar, finds where the number ends and converts it. It returns
// how far it read, n. ok reports that b[:n] is a JSON number and that
// b[n], if b goes on, is a byte no number can contain; v is then
// strconv.ParseFloat's value for b[:n], bit for bit, and inRange is false
// when its magnitude overflows a float64. Otherwise b does not start with
// a number the grammar accepts up to the end of its run of number bytes,
// and the scan declines. When n == len(b) the scan ran to b's end, so b
// may end inside the number: a caller holding only part of the input
// reads more and scans again.
//
// While it checks the grammar, the scan gathers what strconv's own scan
// gathers: the first 19 significant digits as an integer man (10^19 fits
// a uint64), whether a nonzero digit fell beyond them, and the decimal
// exponent exp, so that the number is man × 10^exp. scanDigits takes
// eight digits per step where it can. The scan then converts through the
// first of three paths that applies, each of which yields the correctly
// rounded value, as strconv does:
//
//   - man ≤ 2^53 and |exp| ≤ 22: man and 10^|exp| are exact float64s, so
//     one IEEE multiply or divide rounds once, correctly (strconv's
//     atof64exact);
//   - eiselLemire64, strconv's next path, when exp is within its table
//     and it can decide the rounding;
//   - strconv.ParseFloat itself: more than 19 significant digits, an
//     exponent beyond the table, Eisel-Lemire's rare undecided case, and
//     results that overflow or fall into subnormals.
func scanNumber(b []byte) (v float64, n int, ok, inRange bool) {
	i, neg := 0, false
	if len(b) > 0 && b[0] == '-' {
		i, neg = 1, true
	}
	if i == len(b) {
		return 0, i, false, false
	}
	// nd counts significant digits (from the first nonzero one), dp is the
	// decimal point's place counted in them, and trunc notes a nonzero
	// digit past the 19th.
	var man uint64
	nd, trunc := 0, false
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i, man, nd, trunc = scanDigits(b, i, man, nd, trunc)
	default:
		return 0, i, false, false
	}
	dp := nd
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if nd == 0 {
			// Leading zeros of a fraction below one only move the point.
			for i < len(b) && b[i] == '0' {
				i++
			}
			dp -= i - start
		}
		i, man, nd, trunc = scanDigits(b, i, man, nd, trunc)
		if i == start {
			return 0, i, false, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // far beyond any float64; keeps e from overflowing
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, i, false, false
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	if i < len(b) && numberByte[b[i]] {
		return 0, i, false, false // as in 01, 1.5.3 or 2e5e1
	}

	exp := 0
	if nd > 0 {
		exp = dp - min(nd, 19)
	}
	if !trunc {
		if man <= 1<<53 && -22 <= exp && exp <= 22 {
			f := float64(man)
			if neg {
				f = -f
			}
			if exp >= 0 {
				return f * float64pow10[exp], i, true, true
			}
			return f / float64pow10[-exp], i, true, true
		}
		if f, ok := eiselLemire64(man, exp, neg); ok {
			return f, i, true, true
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, i, true, err == nil
}

// scanDigits reads the run of decimal digits at b[i:] into the mantissa
// man, which holds nd significant digits so far: up to 19 are kept, and
// trunc notes a nonzero digit past them. It returns where the run ends
// and the updated mantissa. While eight bytes remain and the mantissa has
// room for eight more digits, it loads them as one little-endian uint64
// and checks and converts all eight at once (Lemire, "Number Parsing at a
// Gigabyte per Second", section 5); the rest go one at a time.
func scanDigits(b []byte, i int, man uint64, nd int, trunc bool) (int, uint64, int, bool) {
	for nd <= 19-8 && len(b)-i >= 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		// Each byte is a digit iff its high nibble is 3 and adding 6 leaves
		// it 3; a byte that carries out of the addition fails its own test.
		if (x&0xF0F0F0F0F0F0F0F0)|(((x+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4) != 0x3333333333333333 {
			break
		}
		// Combine the digit values pairwise, then pairs of pairs, then the
		// two halves: the first digit sits in the lowest byte.
		x -= 0x3030303030303030
		x = x*10 + x>>8
		x = ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		man = man*100000000 + uint64(uint32(x))
		nd += 8
		i += 8
	}
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if nd < 19 {
			man = man*10 + uint64(c)
		} else if c != 0 {
			trunc = true
		}
		nd++
	}
	return i, man, nd, trunc
}

// key consumes an object key and its colon and returns the index of the
// name in names it matches as encoding/json matches struct fields —
// case-insensitively, by Unicode simple folding — or -1.
func (d *epochDecoder) key(names []string) (int, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	if c != '"' {
		return 0, d.unexpected(c, "looking for beginning of object key string")
	}
	raw, plain, err := d.str()
	if err != nil {
		return 0, err
	}
	field := -1
	if len(names) > 0 {
		// A plain key is compared where it lies in the window; only an
		// escaped one is unquoted first. bytes.EqualFold folds exactly as
		// strings.EqualFold does.
		k := raw[1 : len(raw)-1]
		if !plain {
			s, err := unquote(raw, plain)
			if err != nil {
				return 0, err
			}
			k = []byte(s)
		}
		for i, name := range names {
			if bytes.EqualFold(k, []byte(name)) {
				field = i
				break
			}
		}
	}
	if c, err = d.peek(); err != nil {
		return 0, err
	}
	if c != ':' {
		return 0, d.unexpected(c, "after object key")
	}
	d.pos++
	return field, nil
}

// object consumes the members of an object whose '{' is at d.pos, at
// nesting depth (1 for the request itself). member decodes the value of
// each key in names; other members are skipped.
func (d *epochDecoder) object(names []string, depth int, member func(field int) error) error {
	d.pos++
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		field, err := d.key(names)
		if err != nil {
			return err
		}
		if field < 0 {
			err = d.skip(depth)
		} else {
			err = member(field)
		}
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected(c, "after object key:value pair")
		}
	}
}

// array consumes an array whose '[' is at d.pos, calling elem for each
// element; it returns the element count.
func (d *epochDecoder) array(elem func(i int) error) (int, error) {
	d.pos++
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	if c == ']' {
		d.pos++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		if c, err = d.peek(); err != nil {
			return 0, err
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return i + 1, nil
		default:
			return 0, d.unexpected(c, "after array element")
		}
	}
}

// skip consumes one value of any shape, checking its syntax, for a member
// the schema does not name. depth is the nesting of the object holding it.
func (d *epochDecoder) skip(depth int) error {
	var open []byte // containers entered so far, innermost last
	for {
		// A value starts here.
		c, err := d.peek()
		if err != nil {
			return err
		}
		switch {
		case c == '{' || c == '[':
			if depth+len(open) >= maxDepth {
				return d.errorAt(d.pos, "exceeded max depth")
			}
			d.pos++
			open = append(open, c)
			if c, err = d.peek(); err != nil {
				return err
			}
			if c == '}' && open[len(open)-1] == '{' || c == ']' && open[len(open)-1] == '[' {
				d.pos++
				open = open[:len(open)-1]
				break
			}
			if open[len(open)-1] == '{' {
				if _, err := d.key(nil); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			_, _, err = d.str()
		case c == '-' || '0' <= c && c <= '9':
			_, err = d.number()
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		default:
			return d.unexpected(c, "looking for beginning of value")
		}
		if err != nil {
			return err
		}
		// A value ended: close the containers that end with it.
		for {
			if len(open) == 0 {
				return nil
			}
			if c, err = d.peek(); err != nil {
				return err
			}
			top := open[len(open)-1]
			if c == ',' {
				d.pos++
				if top == '{' {
					if _, err := d.key(nil); err != nil {
						return err
					}
				}
				break
			}
			if top == '{' && c == '}' || top == '[' && c == ']' {
				d.pos++
				open = open[:len(open)-1]
				continue
			}
			if top == '{' {
				return d.unexpected(c, "after object key:value pair")
			}
			return d.unexpected(c, "after array element")
		}
	}
}

// request decodes the body: an object, or a bare null, which like
// encoding/json leaves the request zero. Nothing after it is read.
func (d *epochDecoder) request() (epochRequest, error) {
	var req epochRequest
	c, err := d.peek()
	if err != nil {
		return req, err
	}
	switch c {
	case 'n':
		return req, d.literal("null")
	case '{':
	default:
		return req, d.unexpected(c, "looking for the epoch request object")
	}
	err = d.object(requestFields, 1, func(field int) error {
		switch field {
		case fieldTenant:
			return d.tenant(&req.Tenant)
		case fieldN:
			return d.integer(&req.N, "n (an integer)")
		case fieldRows:
			return d.rows(&req.Rows, "rows")
		case fieldTailPct:
			return d.float(&req.TailPct, "tail_pct (a number)")
		default: // fieldTailRows
			return d.rows(&req.TailRows, "tail_rows")
		}
	})
	return req, err
}

func (d *epochDecoder) tenant(dst *string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '"':
		raw, plain, err := d.str()
		if err != nil {
			return err
		}
		*dst, err = unquote(raw, plain)
		return err
	}
	return d.unexpected(c, "looking for tenant (a string)")
}

// numberOrNull consumes a number token, not yet checked against the
// grammar, and returns it, aliasing the window until the next read; or it
// consumes null and returns nil. what names the destination for a type
// error.
func (d *epochDecoder) numberOrNull(what string) ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c == 'n' {
		return nil, d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return nil, d.unexpected(c, "looking for "+what)
	}
	return d.numberToken(), nil
}

func (d *epochDecoder) integer(dst *int, what string) error {
	tok, err := d.numberOrNull(what)
	if err != nil || tok == nil {
		return err
	}
	if !validNumber(tok) {
		return d.invalidNumber(tok)
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(v)) != v {
		return d.errorAt(d.pos-len(tok), "cannot decode number %s into %s", tok, what)
	}
	*dst = int(v)
	return nil
}

// float decodes a number, or null, which leaves *dst unchanged.
func (d *epochDecoder) float(dst *float64, what string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.unexpected(c, "looking for "+what)
	}
	v, err := d.scanFloat(what)
	if err == nil {
		*dst = v
	}
	return err
}

// scanFloat consumes the number that starts at d.pos, scanning it once in
// the window (see scanNumber). A number the window's end cuts off is read
// to the end of its run of number bytes, keeping its start, and scanned
// again. A number the scan declines is consumed as numberToken finds it,
// which words the error as integer and skip do.
func (d *epochDecoder) scanFloat(what string) (float64, error) {
	start := d.pos
	v, n, ok, inRange := scanNumber(d.buf[start:d.end])
	if start+n == d.end && d.err == nil {
		start, _ = d.numberRun(start, d.end)
		v, n, ok, inRange = scanNumber(d.buf[start:d.end])
	}
	if !ok {
		d.pos = start
		return 0, d.invalidNumber(d.numberToken())
	}
	d.pos = start + n
	if !inRange {
		return 0, d.errorAt(start, "cannot decode number %s into %s", d.buf[start:d.pos], what)
	}
	return v, nil
}

// rows decodes an array of row deltas into *dst. Like encoding/json it
// decodes into the slice's existing elements and backing array, so a
// duplicate key or a null element sees what an earlier one left there.
func (d *epochDecoder) rows(dst *[]wal.RowDelta, field string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.unexpected(c, "looking for "+field+" (an array of rows)")
	}
	rows := (*dst)[:0]
	n, err := d.array(func(i int) error {
		if i < cap(rows) {
			rows = rows[:i+1]
		} else {
			rows = append(rows, wal.RowDelta{})
		}
		return d.row(&rows[i], field)
	})
	if err != nil {
		return err
	}
	if n == 0 {
		rows = []wal.RowDelta{}
	}
	*dst = rows
	return nil
}

func (d *epochDecoder) row(rd *wal.RowDelta, field string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.unexpected(c, "looking for "+field+" element (a row object)")
	}
	return d.object(rowFields, 3, func(f int) error {
		if f == fieldRow {
			return d.integer(&rd.Row, "row (an integer)")
		}
		return d.values(&rd.Values) // fieldValues
	})
}

// values decodes a row's values into *dst, reusing its backing array the
// way encoding/json does (see rows). This is the loop a dense epoch spends
// its time in.
func (d *epochDecoder) values(dst *[]float64) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.unexpected(c, "looking for values (an array of numbers)")
	}
	vals := (*dst)[:0]
	if cap(vals) == 0 && d.rowLen > 0 {
		vals = make([]float64, 0, d.rowLen)
	}
	// The array is read here rather than through array: in a dense body
	// each element is a number followed by ',' in the window, which this
	// loop consumes without a call per element to peek or to a closure.
	// Anything else — whitespace, null, the window's end — goes the
	// general way.
	const what = "values element (a number)"
	d.pos++
	if c, err = d.peek(); err != nil {
		return err
	}
	n := 0
	if c == ']' {
		d.pos++
	}
	for c != ']' {
		if n < cap(vals) {
			vals = vals[:n+1]
		} else {
			vals = append(vals, 0)
		}
		if d.pos < d.end && (d.buf[d.pos]-'0' <= 9 || d.buf[d.pos] == '-') {
			vals[n], err = d.scanFloat(what)
		} else {
			err = d.float(&vals[n], what)
		}
		if err != nil {
			return err
		}
		n++
		if d.pos < d.end {
			c = d.buf[d.pos]
		}
		if d.pos == d.end || c != ',' && c != ']' {
			if c, err = d.peek(); err != nil {
				return err
			}
		}
		switch c {
		case ',', ']':
			d.pos++
		default:
			return d.unexpected(c, "after array element")
		}
	}
	if n == 0 {
		vals = []float64{}
	}
	*dst = vals
	switch d.rowLen {
	case 0:
		d.rowLen = n
	case n, -1:
	default:
		d.rowLen = -1
	}
	return nil
}
