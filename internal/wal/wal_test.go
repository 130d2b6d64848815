package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudia/internal/core"
)

// collect re-opens dir and returns every replayed record.
func collect(t *testing.T, dir string, opts Options) ([]Record, *Log) {
	t.Helper()
	var recs []Record
	l, err := Open(dir, opts, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return recs, l
}

func testEpoch(epoch, n int, seed int64) *EpochRecord {
	rng := rand.New(rand.NewSource(seed))
	rows := []RowDelta{}
	for i := 0; i < n; i += 2 {
		vals := make([]float64, n)
		for j := range vals {
			if j != i {
				vals[j] = rng.Float64()
			}
		}
		rows = append(rows, RowDelta{Row: i, Values: vals})
	}
	return &EpochRecord{Epoch: epoch, Fingerprint: core.Fingerprint(seed + 1), N: n, Rows: rows}
}

func testAdvice(epoch int) *AdviceRecord {
	return &AdviceRecord{
		Epoch:       epoch,
		Fingerprint: 0xfeed,
		SolverName:  "cp",
		ClusterK:    20,
		Objective:   "longest-link",
		Winner:      "CP",
		Cost:        1.25,
		Deployment:  []int{3, 1, 4, 0},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewCostMatrix(3)
	m.Set(0, 1, 0.5)
	m.Set(2, 0, 1.5)
	want := []Record{
		testEpoch(1, 4, 7),
		testAdvice(1),
		&SnapshotRecord{Epoch: 2, Fingerprint: 9, Matrix: m, Advice: testAdvice(2)},
		&SnapshotRecord{Epoch: 3, Fingerprint: 10, Matrix: m},
		&EpochRecord{Epoch: 4, Fingerprint: 11, N: 2}, // no changed rows
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		// The codec leaves nil and empty slices indistinguishable; normalize.
		if we, ok := w.(*EpochRecord); ok && we.Rows == nil {
			we.Rows = []RowDelta{}
			g.(*EpochRecord).Rows = append([]RowDelta{}, g.(*EpochRecord).Rows...)
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("record %d: got %+v want %+v", i, g, w)
		}
	}
	if st := l2.Stats(); st.RecoveredRecords != int64(len(want)) {
		t.Errorf("RecoveredRecords = %d, want %d", st.RecoveredRecords, len(want))
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testAdvice(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, l2 := collect(t, dir, Options{})
	if err := l2.Append(testAdvice(2)); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	recs, l3 := collect(t, dir, Options{})
	defer l3.Close()
	if len(recs) != 2 || recs[1].(*AdviceRecord).Epoch != 2 {
		t.Fatalf("got %d records, want the reopened append as record 2", len(recs))
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 1; i <= n; i++ {
		if err := l.Append(testAdvice(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatal("no rotations under a 256-byte segment cap")
	}
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want several", st.Segments)
	}
	l.Close()

	recs, l2 := collect(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.(*AdviceRecord).Epoch != i+1 {
			t.Fatalf("record %d out of order: epoch %d", i, r.(*AdviceRecord).Epoch)
		}
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := l.Append(testAdvice(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := core.NewCostMatrix(2)
	m.Set(0, 1, 3)
	m.Set(1, 0, 4)
	if err := l.Compact(&SnapshotRecord{Epoch: 10, Fingerprint: 77, Matrix: m, Advice: testAdvice(10)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testAdvice(11)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("after compaction: %+v", st)
	}
	l.Close()

	recs, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after compaction, want snapshot + 1", len(recs))
	}
	snap, ok := recs[0].(*SnapshotRecord)
	if !ok || snap.Fingerprint != 77 || snap.Matrix.At(1, 0) != 4 || snap.Advice == nil {
		t.Fatalf("first replayed record is not the snapshot: %+v", recs[0])
	}
	if recs[1].(*AdviceRecord).Epoch != 11 {
		t.Fatalf("post-compaction record lost: %+v", recs[1])
	}
}

func TestCompactClosedAndNil(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{}, nil)
	if err := l.Compact(nil); err == nil {
		t.Fatal("Compact(nil) succeeded")
	}
	l.Close()
	if err := l.Append(testAdvice(1)); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync on closed log succeeded")
	}
	if err := l.Compact(&SnapshotRecord{Matrix: core.NewCostMatrix(1)}); err == nil {
		t.Fatal("Compact on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, last)
}

func writeLog(t *testing.T, dir string, n int, opts Options) {
	t.Helper()
	l, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := l.Append(testAdvice(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 5, Options{})

	// Flip one byte inside the final frame's body.
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, l := collect(t, dir, Options{})
	if len(recs) != 4 {
		t.Fatalf("replayed %d records past a corrupt tail, want 4", len(recs))
	}
	if st := l.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes = 0 after tail truncation")
	}
	// The log must keep working where the truncation left it.
	if err := l.Append(testAdvice(99)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs2, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(recs2) != 5 || recs2[4].(*AdviceRecord).Epoch != 99 {
		t.Fatalf("post-truncation append not replayed: %d records", len(recs2))
	}
}

func TestTruncatedSegmentTail(t *testing.T) {
	for _, cut := range []int{1, 3, 9} { // mid-header, mid-header, mid-body
		dir := t.TempDir()
		writeLog(t, dir, 3, Options{})
		path := lastSegment(t, dir)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}
		recs, l := collect(t, dir, Options{})
		l.Close()
		if len(recs) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, len(recs))
		}
	}
}

func TestCorruptionBeforeTailLosesSuffix(t *testing.T) {
	// A corrupt frame in the MIDDLE of the final segment truncates there:
	// later frames — even valid ones — are unreachable, because frame
	// boundaries downstream of a bad length field cannot be trusted.
	dir := t.TempDir()
	writeLog(t, dir, 4, Options{})
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0x40 // inside record 1's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, l := collect(t, dir, Options{})
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records after mid-segment corruption, want 0", len(recs))
	}
}

func TestCorruptEarlierSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 30, Options{SegmentBytes: 256}) // several segments
	// Corrupt the FIRST segment: not the tail, so recovery must refuse.
	entries, _ := os.ReadDir(dir)
	first := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			first = filepath.Join(dir, e.Name())
			break
		}
	}
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, nil); err == nil {
		t.Fatal("Open succeeded over a corrupt non-final segment")
	} else if !strings.Contains(err.Error(), "before the tail") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestUnknownRecordKindIsCorruption(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 2, Options{})
	// Append a CRC-valid frame with an unknown kind by hand.
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.buf = l.buf[:0]
	frame, _ := l.frame(testAdvice(3))
	bad := append([]byte(nil), frame...)
	bad[8] = 99 // kind byte
	// Recompute the CRC so only the kind is wrong.
	body := bad[frameHeaderBytes:]
	putCRC(bad, body)
	if _, err := l.f.Write(bad); err != nil {
		t.Fatal(err)
	}
	l.f.Sync()
	l.f.Close()

	recs, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the alien frame", len(recs))
	}
}

func TestReplayErrorAborts(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 3, Options{})
	boom := errors.New("boom")
	_, err := Open(dir, Options{}, func(Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Open error = %v, want the replay error", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*batchAppends; i++ {
		if err := l.Append(testAdvice(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 2 {
		t.Fatalf("SyncBatch after %d appends: %d syncs, want 2", 2*batchAppends, st.Syncs)
	}
	l.Close()

	dir2 := t.TempDir()
	l2, err := Open(dir2, Options{Sync: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := l2.Append(testAdvice(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l2.Stats(); st.Syncs != 0 {
		t.Fatalf("SyncNone: %d syncs during appends", st.Syncs)
	}
	if err := l2.Sync(); err != nil { // explicit sync still works
		t.Fatal(err)
	}
	l2.Close()
	recs, l3 := collect(t, dir2, Options{})
	defer l3.Close()
	if len(recs) != 8 {
		t.Fatalf("SyncNone lost flushed records: %d of 8", len(recs))
	}
}

// errCrashTest is the sentinel the in-process crash hook panics with.
var errCrashTest = errors.New("injected crash")

// crashAt arms the crashpoint hook to die at the nth occurrence of name.
func crashAt(t *testing.T, name string, nth int) {
	t.Helper()
	seen := 0
	SetCrashpointHook(func(p string) {
		if p != name {
			return
		}
		seen++
		if seen == nth {
			panic(errCrashTest)
		}
	})
	t.Cleanup(func() { SetCrashpointHook(nil) })
}

// runToCrash runs f, which is expected to die at an armed crashpoint, and
// reports whether it did.
func runToCrash(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errCrashTest) {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	f()
	return false
}

func TestCrashpointDurability(t *testing.T) {
	// A crash before the sync point loses the in-flight record; a crash
	// after it keeps the record. Either way every previously acknowledged
	// record survives and the log reopens cleanly.
	cases := []struct {
		point string
		kept  int // records recovered after appending 3 and dying on the 3rd
	}{
		{"append.start", 2},
		{"append.framed", 2}, // buffered but unflushed dies with the process
		{"append.synced", 3},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			crashAt(t, tc.point, 3)
			crashed := runToCrash(func() {
				for i := 1; i <= 3; i++ {
					if err := l.Append(testAdvice(i)); err != nil {
						t.Fatal(err)
					}
				}
			})
			SetCrashpointHook(nil)
			if !crashed {
				t.Fatal("workload did not crash")
			}
			// Abandon l without Close — crash semantics — and reopen.
			recs, l2 := collect(t, dir, Options{})
			defer l2.Close()
			if len(recs) != tc.kept {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.kept)
			}
		})
	}
}

func TestCrashpointCompaction(t *testing.T) {
	// Dying between "snapshot durable" and "old segments removed" must
	// recover to the same state as a completed compaction.
	for _, point := range []string{"compact.written", "compact.removed"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 4; i++ {
				if err := l.Append(testAdvice(i)); err != nil {
					t.Fatal(err)
				}
			}
			m := core.NewCostMatrix(2)
			m.Set(0, 1, 8)
			crashAt(t, point, 1)
			crashed := runToCrash(func() {
				if err := l.Compact(&SnapshotRecord{Epoch: 4, Fingerprint: 5, Matrix: m}); err != nil {
					t.Fatal(err)
				}
			})
			SetCrashpointHook(nil)
			if !crashed {
				t.Fatal("workload did not crash")
			}
			recs, l2 := collect(t, dir, Options{})
			defer l2.Close()
			// Replay semantics: a snapshot resets state, so whatever
			// prefix survives, the LAST record must be the snapshot.
			if len(recs) == 0 {
				t.Fatal("no records recovered")
			}
			last, ok := recs[len(recs)-1].(*SnapshotRecord)
			if !ok || last.Fingerprint != 5 {
				t.Fatalf("last recovered record is not the snapshot: %+v", recs[len(recs)-1])
			}
		})
	}
}

// TestFailedSyncPoisonsLog: after one failed fsync the log refuses every
// later Append, Sync and Compact with that first error, and Close reports
// it. The frame whose fsync failed was already flushed, so reopening
// replays it like any valid frame.
func TestFailedSyncPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testAdvice(1)); err != nil {
		t.Fatal(err)
	}
	eio := errors.New("injected EIO")
	FailNextSync(eio)
	first := l.Append(testAdvice(2))
	if !errors.Is(first, ErrFailed) || !errors.Is(first, eio) {
		t.Fatalf("append over a failed fsync returned %v, want ErrFailed wrapping the fsync error", first)
	}
	m := core.NewCostMatrix(2)
	m.Set(0, 1, 8)
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"Append", func() error { return l.Append(testAdvice(3)) }},
		{"Sync", l.Sync},
		{"Compact", func() error { return l.Compact(&SnapshotRecord{Epoch: 3, Fingerprint: 5, Matrix: m}) }},
		{"Close", l.Close}, // last: a closed log reports "closed" instead
	} {
		if err := op.call(); err != first {
			t.Fatalf("%s on a failed log returned %v, want the first failure %v", op.name, err, first)
		}
	}
	recs, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("reopen replayed %d records, want 2 (the failed-ack frame included)", len(recs))
	}
	if err := l2.Append(testAdvice(3)); err != nil {
		t.Fatalf("reopened log refuses appends: %v", err)
	}
}

func TestOptionsValidationAndHelpers(t *testing.T) {
	if _, ok := segIndexOf("junk"); ok {
		t.Fatal("segIndexOf accepted junk")
	}
	if _, ok := segIndexOf("0000000x.seg"); ok {
		t.Fatal("segIndexOf accepted a non-numeric index")
	}
	if idx, ok := segIndexOf("00000042.seg"); !ok || idx != 42 {
		t.Fatalf("segIndexOf = %d,%v", idx, ok)
	}
	o := Options{}.withDefaults()
	if o.SegmentBytes != 1<<20 || o.Sync != SyncAlways {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestDecodeMalformedPayloads(t *testing.T) {
	// CRC-valid frames with malformed payloads must be rejected by the
	// decoder, not crash it.
	cases := [][]byte{
		{},     // empty epoch payload
		{0x01}, // epoch, fingerprint missing
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // uvarint overflow
	}
	for i, payload := range cases {
		if _, err := decodeRecord(kindEpoch, payload); err == nil {
			t.Errorf("case %d: epoch decode succeeded on malformed payload", i)
		}
		if _, err := decodeRecord(kindAdvice, payload); err == nil {
			t.Errorf("case %d: advice decode succeeded on malformed payload", i)
		}
		if _, err := decodeRecord(kindSnapshot, payload); err == nil {
			t.Errorf("case %d: snapshot decode succeeded on malformed payload", i)
		}
	}
	// An advice count that cannot fit the remaining bytes.
	adv := (&AdviceRecord{Deployment: []int{1, 2, 3}}).appendPayload(nil)
	adv = adv[:len(adv)-2] // drop deployment bytes, keep the count
	if _, err := decodeRecord(kindAdvice, adv); err == nil {
		t.Error("advice decode succeeded with a short deployment")
	}
	// An epoch claiming more changed rows than the matrix has.
	ep := (&EpochRecord{Epoch: 1, Fingerprint: 2, N: 1, Rows: []RowDelta{{Row: 0, Values: []float64{0}}}}).appendPayload(nil)
	ep[10]++ // bump the row count past N (layout: epoch, fp, n, rows)
	if _, err := decodeRecord(kindEpoch, ep); err == nil {
		t.Error("epoch decode succeeded with rows > N")
	}
}

// putCRC rewrites a frame's CRC field to match its (possibly doctored) body.
func putCRC(frame, body []byte) {
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
}

func TestOpenOverFileFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(path, "wal"), Options{}, nil); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
	if _, err := Open(path, Options{}, nil); err == nil {
		t.Fatal("Open on a regular file succeeded")
	}
}

func TestWriteErrorsSurface(t *testing.T) {
	// Closing the file out from under the log turns the next flush into an
	// I/O error; every write-path entry point must surface it, not panic.
	newBroken := func(t *testing.T, opts Options) *Log {
		l, err := Open(t.TempDir(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.f.Close()
		return l
	}
	t.Run("append", func(t *testing.T) {
		l := newBroken(t, Options{})
		if err := l.Append(testAdvice(1)); err == nil {
			t.Fatal("Append over a closed file succeeded")
		}
	})
	t.Run("sync", func(t *testing.T) {
		l := newBroken(t, Options{Sync: SyncNone})
		if err := l.Append(testAdvice(1)); err != nil {
			t.Fatal(err) // buffered, no flush yet
		}
		if err := l.Sync(); err == nil {
			t.Fatal("Sync over a closed file succeeded")
		}
	})
	t.Run("rotate", func(t *testing.T) {
		l := newBroken(t, Options{Sync: SyncNone, SegmentBytes: 8})
		if err := l.Append(testAdvice(1)); err == nil {
			t.Fatal("rotation over a closed file succeeded")
		}
	})
	t.Run("compact", func(t *testing.T) {
		l := newBroken(t, Options{})
		if err := l.Compact(&SnapshotRecord{Matrix: core.NewCostMatrix(1)}); err == nil {
			t.Fatal("Compact over a closed file succeeded")
		}
	})
	t.Run("close", func(t *testing.T) {
		l := newBroken(t, Options{})
		if err := l.Close(); err == nil {
			t.Fatal("Close over a closed file succeeded")
		}
	})
}

// squatNextSegment takes the name of the segment l would create next, so
// createSegment's O_EXCL fails.
func squatNextSegment(t *testing.T, l *Log) {
	t.Helper()
	if err := os.WriteFile(l.segPath(l.segIndex+1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireFailed checks that err poisoned l: it wraps ErrFailed, and the
// next Append returns that same error.
func requireFailed(t *testing.T, what string, l *Log, err error) {
	t.Helper()
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("%s returned %v, want ErrFailed", what, err)
	}
	if next := l.Append(testAdvice(99)); next != err {
		t.Fatalf("Append after a failed %s returned %v, want the first failure %v", what, next, err)
	}
}

// TestRotateBlockedByExistingSegment: a rotation that cannot create the
// next segment poisons the log, although the record that filled the
// segment is already durable: the active file is closed, so nothing more
// can be acknowledged.
func TestRotateBlockedByExistingSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	squatNextSegment(t, l)
	requireFailed(t, "rotation", l, l.Append(testAdvice(1)))
}

// TestFailedCompactPoisonsLog: a compaction that cannot create its
// snapshot segment poisons the log under every sync policy. Under SyncNone
// the next Append would otherwise buffer its record over the closed
// segment and acknowledge a record that never reaches the disk.
func TestFailedCompactPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := l.Append(testAdvice(i)); err != nil {
			t.Fatal(err)
		}
	}
	squatNextSegment(t, l)
	m := core.NewCostMatrix(2)
	m.Set(0, 1, 8)
	failed := l.Compact(&SnapshotRecord{Epoch: 2, Fingerprint: 5, Matrix: m})
	requireFailed(t, "Compact", l, failed)
	if err := l.Close(); err != failed {
		t.Fatalf("Close returned %v, want the first failure", err)
	}
	recs, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("reopen replayed %d records, want the 2 acknowledged ones", len(recs))
	}
	if err := l2.Append(testAdvice(3)); err != nil {
		t.Fatalf("reopened log refuses appends: %v", err)
	}
}

// TestDirectorySyncFailuresPoisonLog: the directory fsyncs after a segment
// is created and after compacted segments are unlinked go through the
// FailNextSync seam, and a failed one poisons the log. Arming the fault at
// a crashpoint fails the first fsync after it, which must be the
// directory's.
func TestDirectorySyncFailuresPoisonLog(t *testing.T) {
	eio := errors.New("injected EIO")
	armAt := func(t *testing.T, point string) {
		SetCrashpointHook(func(p string) {
			if p == point {
				FailNextSync(eio)
			}
		})
		t.Cleanup(func() {
			SetCrashpointHook(nil)
			FailNextSync(nil)
		})
	}
	t.Run("rotate.closed", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{SegmentBytes: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		armAt(t, "rotate.closed")
		err = l.Append(testAdvice(1))
		requireFailed(t, "rotation", l, err)
		if !errors.Is(err, eio) {
			t.Fatalf("rotation returned %v, want the directory fsync's error", err)
		}
	})
	t.Run("compact.written", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(testAdvice(1)); err != nil {
			t.Fatal(err)
		}
		armAt(t, "compact.written")
		err = l.Compact(&SnapshotRecord{Epoch: 1, Fingerprint: 5, Matrix: core.NewCostMatrix(2)})
		requireFailed(t, "Compact", l, err)
		if !errors.Is(err, eio) {
			t.Fatalf("Compact returned %v, want the directory fsync's error", err)
		}
	})
	t.Run("open", func(t *testing.T) {
		// A new log directory's entry is synced into its parent; the open
		// fails when that fsync does.
		FailNextSync(eio)
		defer FailNextSync(nil)
		if _, err := Open(filepath.Join(t.TempDir(), "wal"), Options{}, nil); !errors.Is(err, eio) {
			t.Fatalf("Open over a failed directory fsync returned %v", err)
		}
	})
}

// TestMkdirAllFailedSyncRemovesLevels: MkdirAll removes every level it
// created when a sync fails, so a retry creates and syncs them again
// instead of finding them present; a directory already present is left
// alone and synced nowhere.
func TestMkdirAllFailedSyncRemovesLevels(t *testing.T) {
	eio := errors.New("injected EIO")
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "c")
	defer FailNextSync(nil)
	// Fail the first sync, and nothing of a/b/c may stay behind.
	FailNextSync(eio)
	if err := MkdirAll(dir); !errors.Is(err, eio) {
		t.Fatalf("MkdirAll over a failed fsync returned %v, want %v", err, eio)
	}
	if _, err := os.Stat(filepath.Join(root, "a")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed MkdirAll left %s behind (stat: %v)", filepath.Join(root, "a"), err)
	}
	// A retry syncs again: the fault, armed once more, fails it too.
	FailNextSync(eio)
	if err := MkdirAll(dir); !errors.Is(err, eio) {
		t.Fatalf("retried MkdirAll over a failed fsync returned %v, want %v", err, eio)
	}
	FailNextSync(nil)
	if err := MkdirAll(dir); err != nil {
		t.Fatalf("retry on a healthy disk: %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("stat %s after MkdirAll: %v", dir, err)
	}
	// A path through a file is refused, and nothing is created.
	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MkdirAll(filepath.Join(file, "x")); err == nil {
		t.Fatal("MkdirAll through a file succeeded")
	}
	// Present already: nothing to create, nothing synced, so an armed
	// fault stays armed.
	FailNextSync(eio)
	if err := MkdirAll(dir); err != nil {
		t.Fatalf("MkdirAll of an existing directory: %v", err)
	}
	if err := syncDir(root); !errors.Is(err, eio) {
		t.Fatalf("MkdirAll of an existing directory consumed the armed fault (next sync: %v)", err)
	}
}

// TestFailedUnlinkPoisonsLog: a compacted segment that cannot be unlinked
// fails the compaction closed.
func TestFailedUnlinkPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testAdvice(1)); err != nil {
		t.Fatal(err)
	}
	// Swap the old segment for a non-empty directory of the same name once
	// the snapshot is durable, so its unlink fails.
	old := l.segPath(1)
	SetCrashpointHook(func(p string) {
		if p != "compact.written" {
			return
		}
		if err := os.Remove(old); err != nil {
			t.Error(err)
		}
		if err := os.MkdirAll(filepath.Join(old, "x"), 0o755); err != nil {
			t.Error(err)
		}
	})
	defer SetCrashpointHook(nil)
	err = l.Compact(&SnapshotRecord{Epoch: 1, Fingerprint: 5, Matrix: core.NewCostMatrix(2)})
	requireFailed(t, "Compact", l, err)
}

func TestParseFrameRejectsBadLengths(t *testing.T) {
	zero := make([]byte, frameHeaderBytes) // length 0
	if _, _, err := parseFrame(zero); err == nil {
		t.Fatal("length 0 accepted")
	}
	huge := make([]byte, frameHeaderBytes)
	binary.LittleEndian.PutUint32(huge, maxFrameBytes+1)
	if _, _, err := parseFrame(huge); err == nil {
		t.Fatal("over-cap length accepted")
	}
}

func TestDecodeEdgeCases(t *testing.T) {
	if _, err := decodeRecord(99, nil); err == nil {
		t.Fatal("unknown kind decoded")
	}
	// Negative ClusterK canonicalizes to 0 on encode.
	adv := testAdvice(1)
	adv.ClusterK = -5
	rt, err := decodeRecord(kindAdvice, adv.appendPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rt.(*AdviceRecord).ClusterK != 0 {
		t.Fatalf("ClusterK = %d, want 0", rt.(*AdviceRecord).ClusterK)
	}
	// Trailing bytes after a valid payload.
	ep := testEpoch(1, 2, 3).appendPayload(nil)
	if _, err := decodeRecord(kindEpoch, append(ep, 0xaa)); err == nil {
		t.Fatal("trailing epoch bytes accepted")
	}
	if _, err := decodeRecord(kindAdvice, append(testAdvice(1).appendPayload(nil), 0xaa)); err == nil {
		t.Fatal("trailing advice bytes accepted")
	}
	// A string length running past the payload.
	short := (&AdviceRecord{SolverName: "a-long-solver-name"}).appendPayload(nil)
	if _, err := decodeRecord(kindAdvice, short[:12]); err == nil {
		t.Fatal("truncated string accepted")
	}
	// Snapshot with a bad advice marker.
	snap := (&SnapshotRecord{Matrix: core.NewCostMatrix(1)}).appendPayload(nil)
	snap[len(snap)-1] = 7
	if _, err := decodeRecord(kindSnapshot, snap); err == nil {
		t.Fatal("snapshot advice marker 7 accepted")
	}
	// Snapshot with trailing bytes after an embedded advice.
	withAdv := (&SnapshotRecord{Matrix: core.NewCostMatrix(1), Advice: testAdvice(1)}).appendPayload(nil)
	if _, err := decodeRecord(kindSnapshot, append(withAdv, 0xaa)); err == nil {
		t.Fatal("trailing snapshot bytes accepted")
	}
}

// TestTailRoundTrip: epoch records carrying a tail section, advice records
// carrying a metric, and snapshot records carrying the tail matrix must all
// survive the codec byte-for-byte; records without tails must decode with
// the tail fields untouched.
func TestTailRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewCostMatrix(3)
	m.Set(0, 1, 0.5)
	tail := core.NewCostMatrix(3)
	tail.Set(0, 1, 0.9)
	tail.Set(1, 2, 2.25)
	adv := testAdvice(2)
	adv.Metric = "p99"
	want := []Record{
		// A tail section rides the same record as the mean rows.
		&EpochRecord{
			Epoch: 1, Fingerprint: 5, N: 3,
			Rows:            []RowDelta{{Row: 0, Values: []float64{0, 1, 2}}},
			TailPct:         99,
			TailFingerprint: 6,
			TailRows:        []RowDelta{{Row: 0, Values: []float64{0, 1.5, 3}}, {Row: 2, Values: []float64{4, 5, 0}}},
		},
		// A tail-less epoch after a tailed one: the zero marker, not a
		// stale section.
		testEpoch(2, 3, 21),
		adv,
		&SnapshotRecord{
			Epoch: 3, Fingerprint: 7, Matrix: m,
			Tail: tail, TailPct: 99, TailFingerprint: 8,
			Advice: adv,
		},
		&SnapshotRecord{Epoch: 4, Fingerprint: 9, Matrix: m},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestTailDecodeRejections: a tail section claiming percentile 0 is
// indistinguishable from "no tail" on the daemon side, so the codec must
// refuse it, along with tail sections cut short.
func TestTailDecodeRejections(t *testing.T) {
	tailEpoch := &EpochRecord{
		Epoch: 1, Fingerprint: 1, N: 2,
		TailPct: 95, TailFingerprint: 2,
		TailRows: []RowDelta{{Row: 1, Values: []float64{3, 0}}},
	}
	good := tailEpoch.appendPayload(nil)
	// The encoder can't emit a marker-1 section with percentile 0 (the
	// marker is keyed on TailPct), so corrupt the pct bytes by hand: the
	// tail section is marker(1) + pct(8) + fp(8) + count(1) + row(1+2*8).
	zeroPct := append([]byte(nil), good...)
	for i := len(zeroPct) - 34; i < len(zeroPct)-26; i++ {
		zeroPct[i] = 0
	}
	if _, err := decodeRecord(kindEpoch, zeroPct); err == nil {
		t.Fatal("epoch tail section with percentile 0 accepted")
	}
	if _, err := decodeRecord(kindEpoch, good); err != nil {
		t.Fatalf("valid tailed epoch rejected: %v", err)
	}
	if _, err := decodeRecord(kindEpoch, good[:len(good)-4]); err == nil {
		t.Fatal("truncated epoch tail section accepted")
	}
	if _, err := decodeRecord(kindEpoch, append(good, 0xaa)); err == nil {
		t.Fatal("trailing bytes after a tailed epoch accepted")
	}

	tail := core.NewCostMatrix(2)
	tail.Set(0, 1, 1.5)
	snap := &SnapshotRecord{
		Epoch: 1, Fingerprint: 1, Matrix: core.NewCostMatrix(2),
		Tail: tail, TailPct: 99, TailFingerprint: 3,
	}
	goodSnap := snap.appendPayload(nil)
	// Tail section layout: marker(1) + pct(8) + fp(8) + 2*2 f64 cells (32).
	zeroSnap := append([]byte(nil), goodSnap...)
	for i := len(zeroSnap) - 48; i < len(zeroSnap)-40; i++ {
		zeroSnap[i] = 0
	}
	if _, err := decodeRecord(kindSnapshot, zeroSnap); err == nil {
		t.Fatal("snapshot tail section with percentile 0 accepted")
	}
	if _, err := decodeRecord(kindSnapshot, goodSnap); err != nil {
		t.Fatalf("valid tailed snapshot rejected: %v", err)
	}
	if _, err := decodeRecord(kindSnapshot, goodSnap[:len(goodSnap)-4]); err == nil {
		t.Fatal("truncated snapshot tail section accepted")
	}
	if _, err := decodeRecord(kindSnapshot, append(goodSnap, 0xaa)); err == nil {
		t.Fatal("trailing bytes after a tailed snapshot accepted")
	}
}

// TestScratchStaysSmall: a log keeps at most scratchBytes of frame scratch
// between frames. An 8 MB epoch, a compaction snapshot and a replay over a
// large snapshot each use a buffer the log drops afterwards, while a
// steady-state frame keeps its scratch for the next one.
func TestScratchStaysSmall(t *testing.T) {
	const n = 1000 // a full epoch or snapshot frame is about 8 MB
	opts := Options{Sync: SyncNone, SegmentBytes: 64 << 20}
	check := func(what string, l *Log) {
		t.Helper()
		if c := cap(l.buf); c > scratchBytes {
			t.Fatalf("%s: log keeps %d bytes of frame scratch, want at most %d", what, c, scratchBytes)
		}
	}
	rng := rand.New(rand.NewSource(11))
	m := core.NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, rng.Float64())
			}
		}
	}
	full := &EpochRecord{Epoch: 1, Fingerprint: 1, N: n, Rows: make([]RowDelta, n)}
	for i := range full.Rows {
		full.Rows[i] = RowDelta{Row: i, Values: m.Row(i)}
	}

	dir := t.TempDir()
	l, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(full); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.ActiveBytes < n*n*8 {
		t.Fatalf("full epoch framed in %d bytes, want an 8 MB frame", st.ActiveBytes)
	}
	check("after an 8 MB epoch", l)
	if err := l.Append(testEpoch(2, 8, 3)); err != nil {
		t.Fatal(err)
	}
	if cap(l.buf) == 0 {
		t.Fatal("a steady-state frame dropped its scratch")
	}
	if err := l.Compact(&SnapshotRecord{Epoch: 2, Fingerprint: 2, Matrix: m}); err != nil {
		t.Fatal(err)
	}
	check("after Compact", l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, l2 := collect(t, dir, opts)
	defer l2.Close()
	if snap, ok := recs[0].(*SnapshotRecord); len(recs) != 1 || !ok || snap.Matrix.Size() != n {
		t.Fatalf("replayed %d records, want the one %d-instance snapshot", len(recs), n)
	}
	check("after Open replays a large snapshot", l2)
}
