package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzWALRecord feeds arbitrary frame bodies (kind byte + payload) to
// decodeRecord. It must never panic or allocate past what the payload can
// hold, and every record it accepts must re-encode through appendPayload to
// the identical bytes, so the payload format has one encoding per record.
// The seed corpus in testdata/fuzz/FuzzWALRecord holds one record of each
// kind, the overflow payloads of TestDecodeRecordOverflowGuards, and an
// advice whose epoch is the overlong uvarint 0x81 0x00 (which the decoder
// must refuse, or the record would have two encodings). payloadLen, which
// sizes frames, must also give the encoding's exact length. Run `make fuzz` to
// explore beyond it.
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return
		}
		rec, err := decodeRecord(body[0], body[1:])
		if err != nil {
			return
		}
		if rec.kind() != body[0] {
			t.Fatalf("kind %d decoded as %T", body[0], rec)
		}
		if got := rec.appendPayload(nil); !bytes.Equal(got, body[1:]) {
			t.Fatalf("%T re-encodes to\n%x\nnot\n%x", rec, got, body[1:])
		}
		if n := rec.payloadLen(); n != len(body)-1 {
			t.Fatalf("%T payloadLen %d, encoded %d bytes", rec, n, len(body)-1)
		}
	})
}

// FuzzWALFrame feeds arbitrary bytes to parseFrame, the frame layer under
// decodeRecord that replay's readFrame hands every frame to. It must never panic, must never claim a frame longer than
// its input, and every frame it accepts must re-frame through Log.frame to
// the identical bytes, so header, CRC and body have one encoding per
// record. The seed corpus in testdata/fuzz/FuzzWALFrame holds valid epoch,
// advice and snapshot frames, two frames back to back, a torn frame (body
// cut short), a bad CRC, and frames claiming lengths of 0, past the input,
// and past maxFrameBytes.
func FuzzWALFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := parseFrame(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("frame of %d bytes claimed from %d", n, len(data))
		}
		got, err := (&Log{}).frame(rec)
		if err != nil {
			t.Fatalf("accepted %T does not re-frame: %v", rec, err)
		}
		if !bytes.Equal(got, data[:n]) {
			t.Fatalf("%T re-frames to\n%x\nnot\n%x", rec, got, data[:n])
		}
	})
}

// overflowPayload is a record header claiming sizes near MaxInt32 followed
// by a little filler: the products of the claimed sizes overflow int, so a
// size guard that multiplies lets the decoder allocate for them.
func overflowPayload(sizes ...uint64) []byte {
	b := binary.AppendUvarint(nil, 1)          // epoch
	b = binary.LittleEndian.AppendUint64(b, 7) // fingerprint
	for _, v := range sizes {
		b = binary.AppendUvarint(b, v)
	}
	return append(b, make([]byte, 64)...)
}

// TestDecodeRecordOverflowGuards: an epoch claiming N = count = MaxInt32
// used to pass its size guard through overflow and die allocating 2^62
// floats (a fatal out-of-memory, not a recoverable panic), and a snapshot
// claiming n = MaxInt32 panicked in core.NewCostMatrix. Both are format
// errors.
func TestDecodeRecordOverflowGuards(t *testing.T) {
	cases := map[string][]byte{
		"epoch":    append([]byte{kindEpoch}, overflowPayload(math.MaxInt32, math.MaxInt32)...),
		"snapshot": append([]byte{kindSnapshot}, overflowPayload(math.MaxInt32)...),
	}
	for name, body := range cases {
		if _, err := decodeRecord(body[0], body[1:]); err == nil {
			t.Errorf("%s claiming MaxInt32 sizes in %d bytes accepted", name, len(body))
		}
	}
}
