package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"cloudia/internal/core"
)

// This file defines the WAL's record types and their binary payload codec.
// Records are the durability unit of the serve daemon: every tenant state
// transition — a matrix epoch delta, an emitted advice, a compaction
// snapshot — is one record, framed (see wal.go) and appended to the
// tenant's log. The encoding is a fixed little-endian layout with uvarint
// integers: deterministic byte-for-byte for equal records, no reflection,
// no allocation beyond the output buffer, and append-friendly in the
// sequential-write sense of the SSD literature the on-disk layout follows —
// a record is produced once, written once, and never rewritten in place.

// Record kinds, the first byte of every frame body.
const (
	kindEpoch    byte = 1
	kindAdvice   byte = 2
	kindSnapshot byte = 3
)

// Record is one durable log entry. The concrete types are EpochRecord,
// AdviceRecord, and SnapshotRecord.
type Record interface {
	kind() byte
	appendPayload(buf []byte) []byte
}

// RowDelta carries one changed cost-matrix row: the row index and its full
// post-change contents. Replaying a delta is Set(row, j, Values[j]) for
// every column, so a sequence of deltas rebuilds the matrix bit-for-bit.
type RowDelta struct {
	Row    int
	Values []float64
}

// EpochRecord logs one matrix epoch: the rows that changed (with their new
// contents) and the fingerprint the rebuilt matrix must hash to. Recovery
// applies the rows and then verifies the fingerprint bit-for-bit — a
// mismatch means the log and the replay logic disagree about the matrix
// content, which must fail recovery rather than silently serve advice
// computed over a different matrix than the one acknowledged.
type EpochRecord struct {
	// Epoch numbers the tenant's epochs from 1 in append order; it keeps
	// increasing across compactions and restarts.
	Epoch int
	// Fingerprint is the content hash of the full matrix after this
	// epoch's rows are applied.
	Fingerprint core.Fingerprint
	// N is the matrix size; every epoch of one tenant carries the same N.
	N int
	// Rows are the changed rows in ascending index order.
	Rows []RowDelta
	// TailPct, TailFingerprint, and TailRows carry the epoch's percentile
	// (tail) matrix delta when the tenant posts one alongside the mean:
	// the percentile the matrix estimates, the content hash of the full
	// tail matrix after TailRows are applied, and the changed tail rows in
	// ascending index order. TailPct == 0 means the epoch carries no tail
	// section; replay then leaves the tenant's tail matrix untouched.
	TailPct         float64
	TailFingerprint core.Fingerprint
	TailRows        []RowDelta
}

// AdviceRecord logs one emitted advice: the deployment served to the
// tenant, the configuration that produced it, and the fingerprint of the
// matrix it was computed under. Recovery restores the newest advice as the
// tenant's warm-start incumbent, and its solver configuration drives the
// content-addressed cache re-seed.
type AdviceRecord struct {
	// Epoch is the tenant epoch the advice was computed at.
	Epoch int
	// Fingerprint identifies the matrix content the advice was priced on.
	Fingerprint core.Fingerprint
	// SolverName, ClusterK, Objective, and Metric echo the advise request.
	// Metric records which cost summary the search ran on ("mean", "p95",
	// "p99", ...); recovery uses it to re-seed the artifact cache under the
	// matrix the next same-metric advise will actually search.
	SolverName string
	ClusterK   int
	Objective  string
	Metric     string
	// Winner names the portfolio member that produced the deployment.
	Winner string
	// Cost is the deployment cost under the fingerprinted matrix.
	Cost float64
	// Deployment is the served plan, node index to instance index.
	Deployment []int
}

// SnapshotRecord is a compaction point: the tenant's full state at one
// epoch. Replay resets to it, so every record before a snapshot is dead
// weight that Compact removes.
type SnapshotRecord struct {
	Epoch       int
	Fingerprint core.Fingerprint
	// Matrix is the full cost matrix at the snapshot epoch.
	Matrix *core.CostMatrix
	// Advice is the newest advice at the snapshot, nil when the tenant was
	// never advised.
	Advice *AdviceRecord
	// Tail, TailPct, and TailFingerprint are the tenant's full percentile
	// matrix at the snapshot epoch, for tenants that post tail rows. Tail
	// nil (and TailPct 0) means the tenant carries no tail state.
	Tail            *core.CostMatrix
	TailPct         float64
	TailFingerprint core.Fingerprint
}

func (*EpochRecord) kind() byte    { return kindEpoch }
func (*AdviceRecord) kind() byte   { return kindAdvice }
func (*SnapshotRecord) kind() byte { return kindSnapshot }

// appendUint appends v as a uvarint.
func appendUint(buf []byte, v int) []byte {
	return binary.AppendUvarint(buf, uint64(v))
}

// appendF64 appends the raw little-endian bit pattern of v.
func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendString appends a uvarint length followed by the bytes.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func (r *EpochRecord) appendPayload(buf []byte) []byte {
	buf = appendUint(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Fingerprint))
	buf = appendUint(buf, r.N)
	buf = appendUint(buf, len(r.Rows))
	for _, row := range r.Rows {
		buf = appendUint(buf, row.Row)
		for _, v := range row.Values {
			buf = appendF64(buf, v)
		}
	}
	if r.TailPct == 0 {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = appendF64(buf, r.TailPct)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TailFingerprint))
	buf = appendUint(buf, len(r.TailRows))
	for _, row := range r.TailRows {
		buf = appendUint(buf, row.Row)
		for _, v := range row.Values {
			buf = appendF64(buf, v)
		}
	}
	return buf
}

func (r *AdviceRecord) appendPayload(buf []byte) []byte {
	buf = appendUint(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Fingerprint))
	buf = appendString(buf, r.SolverName)
	k := r.ClusterK
	if k < 0 {
		k = 0 // every k <= 0 aliases the unclustered entry
	}
	buf = appendUint(buf, k)
	buf = appendString(buf, r.Objective)
	buf = appendString(buf, r.Metric)
	buf = appendString(buf, r.Winner)
	buf = appendF64(buf, r.Cost)
	buf = appendUint(buf, len(r.Deployment))
	for _, inst := range r.Deployment {
		buf = appendUint(buf, inst)
	}
	return buf
}

func (r *SnapshotRecord) appendPayload(buf []byte) []byte {
	buf = appendUint(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Fingerprint))
	n := r.Matrix.Size()
	buf = appendUint(buf, n)
	for i := 0; i < n; i++ {
		for _, v := range r.Matrix.Row(i) {
			buf = appendF64(buf, v)
		}
	}
	if r.Advice == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = r.Advice.appendPayload(buf)
	}
	if r.Tail == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = appendF64(buf, r.TailPct)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TailFingerprint))
	for i := 0; i < n; i++ {
		for _, v := range r.Tail.Row(i) {
			buf = appendF64(buf, v)
		}
	}
	return buf
}

// payloadReader decodes a record payload, tracking one sticky error so call
// sites stay linear.
type payloadReader struct {
	b   []byte
	err error
}

func (p *payloadReader) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *payloadReader) uint() int {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	// A minimal encoding never ends in a zero group: rejecting overlong
	// forms keeps every accepted payload the exact bytes appendPayload
	// writes for its record.
	if n <= 0 || v > math.MaxInt32 || (n > 1 && p.b[n-1] == 0) {
		p.fail("wal: malformed uvarint")
		return 0
	}
	p.b = p.b[n:]
	return int(v)
}

func (p *payloadReader) u64() uint64 {
	if p.err != nil {
		return 0
	}
	if len(p.b) < 8 {
		p.fail("wal: truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b)
	p.b = p.b[8:]
	return v
}

func (p *payloadReader) f64() float64 { return math.Float64frombits(p.u64()) }

// marker reads a one-byte 0/1 presence marker.
func (p *payloadReader) marker(what string) byte {
	if p.err != nil {
		return 0
	}
	if len(p.b) < 1 {
		p.fail("wal: truncated %s marker", what)
		return 0
	}
	m := p.b[0]
	p.b = p.b[1:]
	if m > 1 {
		p.fail("wal: %s marker %d", what, m)
		return 0
	}
	return m
}

// fits reports whether count items of size bytes each fit in the rest of
// the payload. It divides instead of multiplying: count and size come from
// uvarints up to MaxInt32, whose products overflow int.
func (p *payloadReader) fits(count, size int) bool {
	return size == 0 || count <= len(p.b)/size
}

// rowDeltas reads count row deltas of n values each, refusing counts that
// cannot possibly fit before allocating: each delta is at least one index
// byte plus n fixed-width values.
func (p *payloadReader) rowDeltas(count, n int) []RowDelta {
	if p.err != nil {
		return nil
	}
	if count > n {
		p.fail("wal: epoch record claims %d changed rows of %d", count, n)
		return nil
	}
	if !p.fits(count, n*8+1) {
		p.fail("wal: epoch record claims %d rows of %d values in %d bytes", count, n, len(p.b))
		return nil
	}
	rows := make([]RowDelta, 0, count)
	// One flat backing array for all row values: replaying a large epoch
	// costs two allocations instead of one per row, and the full-capacity
	// subslices keep rows from ever growing into each other.
	flat := make([]float64, count*n)
	for i := 0; i < count && p.err == nil; i++ {
		d := RowDelta{Row: p.uint(), Values: flat[i*n : (i+1)*n : (i+1)*n]}
		for j := range d.Values {
			d.Values[j] = p.f64()
		}
		rows = append(rows, d)
	}
	return rows
}

func (p *payloadReader) str() string {
	n := p.uint()
	if p.err != nil {
		return ""
	}
	if len(p.b) < n {
		p.fail("wal: truncated string")
		return ""
	}
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s
}

func (p *payloadReader) done() error {
	if p.err != nil {
		return p.err
	}
	if len(p.b) != 0 {
		return fmt.Errorf("wal: %d trailing payload bytes", len(p.b))
	}
	return nil
}

// decodeRecord parses one frame body (kind byte + payload) into its record.
// The caller has already verified the CRC, so any failure here is a format
// error, not a torn write.
func decodeRecord(kind byte, payload []byte) (Record, error) {
	p := &payloadReader{b: payload}
	switch kind {
	case kindEpoch:
		r := &EpochRecord{}
		r.Epoch = p.uint()
		r.Fingerprint = core.Fingerprint(p.u64())
		r.N = p.uint()
		r.Rows = p.rowDeltas(p.uint(), r.N)
		if p.marker("epoch tail") == 1 {
			r.TailPct = p.f64()
			r.TailFingerprint = core.Fingerprint(p.u64())
			r.TailRows = p.rowDeltas(p.uint(), r.N)
			if p.err == nil && r.TailPct == 0 {
				return nil, fmt.Errorf("wal: epoch tail section with percentile 0")
			}
		}
		if err := p.done(); err != nil {
			return nil, err
		}
		return r, nil
	case kindAdvice:
		r, rest, err := decodeAdvice(payload)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("wal: %d trailing payload bytes", len(rest))
		}
		return r, nil
	case kindSnapshot:
		r := &SnapshotRecord{}
		r.Epoch = p.uint()
		r.Fingerprint = core.Fingerprint(p.u64())
		n := p.uint()
		if p.err != nil {
			return nil, p.err
		}
		if !p.fits(n, n*8) {
			return nil, fmt.Errorf("wal: snapshot claims a %d x %d matrix in %d bytes", n, n, len(p.b))
		}
		r.Matrix = core.NewCostMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				r.Matrix.Set(i, j, p.f64())
			}
		}
		if p.marker("snapshot advice") == 1 {
			adv, rest, err := decodeAdvice(p.b)
			if err != nil {
				return nil, err
			}
			r.Advice = adv
			p.b = rest
		}
		if p.marker("snapshot tail") == 1 {
			r.TailPct = p.f64()
			r.TailFingerprint = core.Fingerprint(p.u64())
			if p.err == nil && !p.fits(n, n*8) {
				return nil, fmt.Errorf("wal: snapshot claims a %d x %d tail matrix in %d bytes", n, n, len(p.b))
			}
			r.Tail = core.NewCostMatrix(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					r.Tail.Set(i, j, p.f64())
				}
			}
			if p.err == nil && r.TailPct == 0 {
				return nil, fmt.Errorf("wal: snapshot tail section with percentile 0")
			}
		}
		if err := p.done(); err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("wal: unknown record kind %d", kind)
}

// decodeAdvice parses an advice payload and returns the unconsumed rest, so
// snapshots can embed it as a suffix.
func decodeAdvice(payload []byte) (*AdviceRecord, []byte, error) {
	p := &payloadReader{b: payload}
	r := &AdviceRecord{}
	r.Epoch = p.uint()
	r.Fingerprint = core.Fingerprint(p.u64())
	r.SolverName = p.str()
	r.ClusterK = p.uint()
	r.Objective = p.str()
	r.Metric = p.str()
	r.Winner = p.str()
	r.Cost = p.f64()
	nodes := p.uint()
	if p.err != nil {
		return nil, nil, p.err
	}
	if nodes*1 > len(p.b) { // each entry is at least one byte
		return nil, nil, fmt.Errorf("wal: advice record claims %d deployment entries in %d bytes", nodes, len(p.b))
	}
	r.Deployment = make([]int, nodes)
	for i := range r.Deployment {
		r.Deployment[i] = p.uint()
	}
	if p.err != nil {
		return nil, nil, p.err
	}
	return r, p.b, nil
}
