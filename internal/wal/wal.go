// Package wal implements the append-only per-tenant log behind the durable
// serve daemon: an ordered sequence of CRC32C-framed records (epoch deltas,
// emitted advice, compaction snapshots) in rotated segment files. The
// layout follows the append-friendly write pattern of the SSD literature —
// records are written strictly sequentially, segments are immutable once
// rotated, and reclamation happens at segment granularity (compaction
// writes a snapshot into a fresh segment and unlinks whole old segments)
// rather than by rewriting in place. Each new or unlinked name is made
// durable by fsyncing its directory; fsyncing a file does not persist it.
//
// Durability is governed by a configurable fsync policy; recovery replays
// every record in order and tolerates a torn or corrupt tail by truncating
// the final segment at the last valid frame. Corruption anywhere before the
// tail fails recovery loudly: a mid-log hole means acknowledged state is
// gone, which must never be papered over by serving advice computed from a
// silently shortened history.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Frame layout: u32 length (kind byte + payload), u32 CRC32C over the same
// bytes, then the body. Little-endian throughout.
const (
	frameHeaderBytes = 8
	// maxFrameBytes bounds a single record; a length field beyond it marks
	// the frame corrupt without attempting a giant allocation.
	maxFrameBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFailed marks every error a log returns after a write-path failure: a
// failed write, flush, fsync (of a segment or of the directory), close,
// segment create or unlink. What reached stable storage is then unknown,
// and retrying the fsync proves nothing (a later fsync can succeed for
// pages the kernel already dropped), so the log fails closed: every later
// Append, Sync and Compact returns that first error, and only reopening —
// which replays what the disk actually holds — makes the directory
// writable again. A frame whose write or fsync reported failure may still
// be on disk; replay applies it like any other valid frame, exactly as it
// applies a frame whose writer crashed before acknowledging it.
var ErrFailed = errors.New("wal: log failed")

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives any crash. The default, and the policy the serve daemon
	// uses for epoch records before acknowledging them.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs every 16 appends (batchAppends) and on rotation,
	// compaction, and Close: a crash loses at most one batch of
	// acknowledged records. The group-commit point on the
	// durability/throughput curve.
	SyncBatch
	// SyncNone never fsyncs outside rotation, compaction, and Close; the
	// OS page cache decides. A process crash still loses nothing the
	// writer flushed; an OS crash may lose recent records.
	SyncNone
)

// Options sizes a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes; <= 0 selects 1 MiB. A record always lands whole in one
	// segment — rotation happens between records, so a segment may
	// overshoot by up to one frame.
	SegmentBytes int
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
}

// batchAppends is the SyncBatch group size.
const batchAppends = 16

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// Stats is a point-in-time counter snapshot of one log.
type Stats struct {
	// Appends counts records appended this process lifetime; Syncs counts
	// segment fsyncs (directory fsyncs are not counted); Rotations counts
	// segment rotations; Compactions counts completed Compact calls.
	Appends, Syncs, Rotations, Compactions int64
	// Segments is the number of live segment files; ActiveBytes the bytes
	// written to the active segment.
	Segments    int
	ActiveBytes int64
	// RecoveredRecords is the number of records replayed at Open;
	// TruncatedBytes is the size of the torn/corrupt tail Open discarded.
	RecoveredRecords int64
	TruncatedBytes   int64
}

// Log is one open append-only log. Not safe for concurrent use; the serve
// daemon serializes each tenant's appends behind the tenant session lock.
type Log struct {
	dir  string
	opts Options

	f        *os.File
	w        *bufio.Writer
	segIndex int
	segs     []int // live segment indices, ascending; last is active

	sinceSync int
	stats     Stats
	buf       []byte // frame scratch, reused across appends
	failed    error  // first write-path failure, wrapping ErrFailed
}

// segName formats a segment file name; segIndexOf parses one.
func segName(idx int) string { return fmt.Sprintf("%08d.seg", idx) }

func segIndexOf(name string) (int, bool) {
	if !strings.HasSuffix(name, ".seg") || len(name) != 12 {
		return 0, false
	}
	idx, err := strconv.Atoi(name[:8])
	if err != nil || idx <= 0 {
		return 0, false
	}
	return idx, true
}

// Open opens (creating if absent) the log in dir, replays every record in
// order through replay (which may be nil), and leaves the log ready for
// appending. A torn or corrupt tail in the final segment is truncated at
// the last valid frame; corruption in any earlier segment fails the open.
// A replay error aborts the open and is returned verbatim.
func Open(dir string, opts Options, replay func(Record) error) (*Log, error) {
	opts = opts.withDefaults()
	if err := MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// ReadDir sorts by name, and fixed-width names sort in index order.
	var segs []int
	for _, e := range entries {
		if idx, ok := segIndexOf(e.Name()); ok && !e.IsDir() {
			segs = append(segs, idx)
		}
	}

	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		return l, nil
	}
	for i, idx := range segs {
		if err := l.replaySegment(idx, i == len(segs)-1, replay); err != nil {
			return nil, err
		}
	}
	l.segs = segs
	l.segIndex = segs[len(segs)-1]
	f, err := os.OpenFile(l.segPath(l.segIndex), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	return l, nil
}

func (l *Log) segPath(idx int) string { return filepath.Join(l.dir, segName(idx)) }

// MkdirAll creates dir and whichever of its parents are missing, as
// os.MkdirAll does, and makes each one it creates durable by fsyncing the
// directory holding it. If a sync fails it removes what it created, so a
// retry creates and syncs those levels again rather than finding them
// present and skipping the sync.
func MkdirAll(dir string) error {
	// created lists the missing levels, innermost first.
	var created []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); err == nil {
			break
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		created = append(created, d)
		if filepath.Dir(d) == d {
			break
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := len(created) - 1; i >= 0; i-- {
		if err := syncDir(filepath.Dir(created[i])); err != nil {
			// Best effort: a level stays only if something else has
			// already written into it, and the sync's error is the one
			// to report.
			for _, d := range created {
				_ = os.Remove(d)
			}
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory, making the names created or removed in it
// durable. It goes through fsync, so FailNextSync reaches it too.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = fsync(d)
		d.Close()
	}
	return err
}

// replaySegment streams one segment frame by frame, feeding valid records to
// replay. Frames are read through a fixed-size buffered reader into the log's
// reusable scratch buffer, so replay memory is bounded by the largest single
// frame rather than the segment size, and steady-state replay allocates only
// what each decoded record retains. In the final segment a torn or corrupt
// tail truncates the file at the last valid frame; anywhere else it is a
// hard error.
func (l *Log) replaySegment(idx int, last bool, replay func(Record) error) error {
	path := l.segPath(idx)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	for off < size {
		rec, frameLen, ferr := l.readFrame(r, size-off)
		if ferr != nil {
			if !last {
				return fmt.Errorf("wal: segment %s: corrupt frame at offset %d before the tail: %v", segName(idx), off, ferr)
			}
			// Torn/corrupt tail: drop everything from the bad frame on.
			l.stats.TruncatedBytes = size - off
			if err := os.Truncate(path, off); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", segName(idx), err)
			}
			break
		}
		if replay != nil {
			if err := replay(rec); err != nil {
				return err
			}
		}
		l.stats.RecoveredRecords++
		off += int64(frameLen)
	}
	l.stats.ActiveBytes = off // Open appends to the last segment replayed
	return nil
}

// readFrame reads one frame from r into the log's reusable scratch buffer
// and decodes it with parseFrame; decodeRecord never retains its input, so
// the buffer is safe to overwrite on the next call. The length is bounded
// before the body is read, so a corrupt header cannot size an allocation.
// remain is the number of unread segment bytes, used to distinguish a
// truncated body from an I/O error so the caller's torn-tail handling
// matches a whole-segment parse exactly.
func (l *Log) readFrame(r *bufio.Reader, remain int64) (Record, int, error) {
	if remain < frameHeaderBytes {
		return nil, 0, fmt.Errorf("short header (%d bytes)", remain)
	}
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("reading header: %v", err)
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length < 1 || length > maxFrameBytes {
		return nil, 0, fmt.Errorf("implausible frame length %d", length)
	}
	if int64(length) > remain-frameHeaderBytes {
		return nil, 0, fmt.Errorf("truncated body (%d of %d bytes)", remain-frameHeaderBytes, length)
	}
	n := frameHeaderBytes + int(length)
	if cap(l.buf) < n {
		l.buf = make([]byte, n)
	}
	frame := l.buf[:n]
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[frameHeaderBytes:]); err != nil {
		return nil, 0, fmt.Errorf("reading body: %v", err)
	}
	return parseFrame(frame)
}

// parseFrame decodes one frame from the head of data, returning the record
// and the frame's total length. Any framing violation — short header, bad
// length, CRC mismatch, truncated body — is an error the caller maps to
// torn-tail truncation or hard corruption. A CRC-valid frame whose payload
// fails to decode is also reported here: a torn write cannot forge a CRC,
// so that case means format corruption and the caller treats it like any
// other bad frame.
func parseFrame(data []byte) (Record, int, error) {
	if len(data) < frameHeaderBytes {
		return nil, 0, fmt.Errorf("short header (%d bytes)", len(data))
	}
	length := binary.LittleEndian.Uint32(data)
	if length < 1 || length > maxFrameBytes {
		return nil, 0, fmt.Errorf("implausible frame length %d", length)
	}
	want := binary.LittleEndian.Uint32(data[4:])
	body := data[frameHeaderBytes:]
	if uint32(len(body)) < length {
		return nil, 0, fmt.Errorf("truncated body (%d of %d bytes)", len(body), length)
	}
	body = body[:length]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, 0, fmt.Errorf("CRC mismatch (%08x != %08x)", got, want)
	}
	rec, err := decodeRecord(body[0], body[1:])
	if err != nil {
		return nil, 0, err
	}
	return rec, frameHeaderBytes + int(length), nil
}

// createSegment makes segment idx the active one and fsyncs the directory,
// so no record is acknowledged in a segment whose name could vanish.
func (l *Log) createSegment(idx int) error {
	f, err := os.OpenFile(l.segPath(idx), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segIndex = idx
	l.segs = append(l.segs, idx)
	l.stats.ActiveBytes = 0
	return syncDir(l.dir)
}

// Append frames rec, writes it to the active segment, syncs per policy, and
// rotates (seals) the segment if it is full. When Append returns under
// SyncAlways the record is on stable storage.
func (l *Log) Append(rec Record) error {
	if err := l.writable(); err != nil {
		return err
	}
	Crashpoint("append.start")
	if err := l.write(rec); err != nil {
		return err
	}
	Crashpoint("append.framed")

	l.sinceSync++
	if l.opts.Sync == SyncAlways || (l.opts.Sync == SyncBatch && l.sinceSync >= batchAppends) {
		if err := l.sync(); err != nil {
			return err
		}
		Crashpoint("append.synced")
	}

	if l.stats.ActiveBytes < int64(l.opts.SegmentBytes) {
		return nil
	}
	if err := l.seal("rotate.closed"); err != nil {
		return err
	}
	l.stats.Rotations++
	Crashpoint("rotate.created")
	return nil
}

// write frames rec, buffers the frame in the active segment and counts it.
// A record too large to frame is refused before any I/O.
func (l *Log) write(rec Record) error {
	frame, err := l.frame(rec)
	if err != nil {
		return err
	}
	if _, err := l.w.Write(frame); err != nil {
		return l.fail(err)
	}
	l.stats.ActiveBytes += int64(len(frame))
	l.stats.Appends++
	return nil
}

// frame encodes rec into the reusable scratch buffer. The buffer is sized
// for the whole frame first, so a large record is written into space
// reserved once rather than grown into, and one over the cap is refused
// before any of it is encoded.
func (l *Log) frame(rec Record) ([]byte, error) {
	size := 1 + rec.payloadLen() // kind byte + payload
	if size > maxFrameBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame cap", size, maxFrameBytes)
	}
	l.buf = slices.Grow(l.buf[:0], frameHeaderBytes+size)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	l.buf = append(l.buf, rec.kind())
	l.buf = rec.appendPayload(l.buf)
	body := l.buf[frameHeaderBytes:]
	binary.LittleEndian.PutUint32(l.buf, uint32(len(body)))
	binary.LittleEndian.PutUint32(l.buf[4:], crc32.Checksum(body, castagnoli))
	return l.buf, nil
}

// writable reports why the log refuses writes: it is closed, or an earlier
// write-path failure poisoned it.
func (l *Log) writable() error {
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	return l.failed
}

// fail poisons the log with its first write-path error (see ErrFailed) and
// returns the poisoned error.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %w", ErrFailed, err)
	}
	return l.failed
}

// sync flushes the writer and fsyncs the active segment.
func (l *Log) sync() error {
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if err := fsync(l.f); err != nil {
		return l.fail(err)
	}
	l.sinceSync = 0
	l.stats.Syncs++
	return nil
}

// Sync forces the buffered suffix to stable storage regardless of policy.
func (l *Log) Sync() error {
	if err := l.writable(); err != nil {
		return err
	}
	return l.sync()
}

// seal ends the active segment — flush, fsync, close — and makes the next
// segment, durably created, the active one. crashpoint, when set, names the
// point between the close and the create. Every failure poisons the log:
// whatever it leaves active is unusable.
func (l *Log) seal(crashpoint string) error {
	if err := l.sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.fail(err)
	}
	if crashpoint != "" {
		Crashpoint(crashpoint)
	}
	if err := l.createSegment(l.segIndex + 1); err != nil {
		return l.fail(err)
	}
	return nil
}

// Compact seals the log's history into snap: the snapshot is written as the
// first record of a fresh segment, made durable, and only then are all
// older segments unlinked and the unlinks made durable. A crash between
// those steps leaves both the old records and the snapshot on disk — replay
// applies the old records and then resets to the snapshot, so recovery
// converges to the same state from every intermediate crash point.
func (l *Log) Compact(snap *SnapshotRecord) error {
	if err := l.writable(); err != nil {
		return err
	}
	if snap == nil || snap.Matrix == nil {
		return fmt.Errorf("wal: nil compaction snapshot")
	}
	old := l.segs
	if err := l.seal(""); err != nil {
		return err
	}
	l.segs = l.segs[len(old):]
	if err := l.write(snap); err != nil {
		return l.fail(err)
	}
	if err := l.sync(); err != nil {
		return err
	}
	Crashpoint("compact.written")
	for _, idx := range old {
		if err := os.Remove(l.segPath(idx)); err != nil {
			return l.fail(err)
		}
	}
	if err := syncDir(l.dir); err != nil {
		return l.fail(err)
	}
	l.stats.Compactions++
	Crashpoint("compact.removed")
	return nil
}

// Close flushes, syncs, and closes the log. The log is unusable afterwards.
// A failed log skips the sync and reports its failure.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.failed
	if err == nil {
		err = l.sync()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.f = nil
	l.w = nil
	return err
}

// Stats returns the log's counter snapshot.
func (l *Log) Stats() Stats {
	st := l.stats
	st.Segments = len(l.segs)
	return st
}
