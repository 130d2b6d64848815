package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"cloudia/internal/core"
)

// pinnedRecords are fixed records whose frames TestFrameBytesPinned hashes.
// Between them they reach every part of the codec: mean and tail rows,
// multi-byte uvarints (epoch, row index, deployment entry), -0, a
// subnormal, the largest float64, an advice with every string set, and
// snapshots with and without their advice and tail sections.
func pinnedRecords() map[string]Record {
	const n = 3
	m := core.NewCostMatrix(n)
	tail := core.NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, float64(i*n+j)/7)
				tail.Set(i, j, float64(i*n+j)*1.5)
			}
		}
	}
	m.Set(1, 2, math.Copysign(0, -1))
	m.Set(2, 0, 5e-324)
	adv := &AdviceRecord{
		Epoch:       300,
		Fingerprint: 0x0123456789abcdef,
		SolverName:  "portfolio",
		ClusterK:    -1,
		Objective:   "longest-path",
		Metric:      "p99",
		Winner:      "R2",
		Cost:        math.MaxFloat64,
		Deployment:  []int{2, 0, 1, 200},
	}
	return map[string]Record{
		"epoch": &EpochRecord{
			Epoch:       129,
			Fingerprint: 0xfedcba9876543210,
			N:           n,
			Rows: []RowDelta{
				{Row: 0, Values: []float64{0, math.Copysign(0, -1), 2.5}},
				{Row: 2, Values: []float64{5e-324, 1e300, 0}},
			},
			TailPct:         99.9,
			TailFingerprint: 42,
			TailRows:        []RowDelta{{Row: 1, Values: []float64{0.125, 0, -7}}},
		},
		"epoch-no-tail": &EpochRecord{
			Epoch: 1, Fingerprint: 1, N: 200,
			Rows: []RowDelta{{Row: 150, Values: make([]float64, 200)}},
		},
		"advice": adv,
		"snapshot": &SnapshotRecord{
			Epoch: 301, Fingerprint: 7, Matrix: m,
			Advice: adv,
			Tail:   tail, TailPct: 95, TailFingerprint: 8,
		},
		"snapshot-bare": &SnapshotRecord{Epoch: 2, Fingerprint: 9, Matrix: m},
	}
}

// TestFrameBytesPinned checks the frames of pinnedRecords against SHA-256
// hashes of the bytes the codec wrote when the format was last changed, so
// a rewrite of the encoder cannot change what is on disk: logs written
// before it must still replay. Each frame must also be exactly the size
// payloadLen reserved for it.
func TestFrameBytesPinned(t *testing.T) {
	want := map[string]string{
		"epoch":         "2de8e73148cfc553a5e97af0d83c4bbd04811229deb2c97309342d8e3a8ee124",
		"epoch-no-tail": "e24c489c6bdd8cdd49aba3490a6b7931556815b22f1a5461183fc7703e94f6d7",
		"advice":        "8fad69424241a96f8cf14969907f4ab9660c67a81eab6460a07febe79bd2db69",
		"snapshot":      "f701346a42d6da1ff8729f61c0cfd07ac7e8a3ea2108578456147c9ab038d90d",
		"snapshot-bare": "85eba2fc027ff8ce0613a86e82c7713b8850835fa23bcc9c30cfd084a9622093",
	}
	var l Log
	for name, rec := range pinnedRecords() {
		frame, err := l.frame(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(frame) != frameHeaderBytes+1+rec.payloadLen() {
			t.Errorf("%s: %d-byte frame, payloadLen %d", name, len(frame), rec.payloadLen())
		}
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: frame SHA-256 %s, want %s", name, got, want[name])
		}
	}
}

// TestFrameRefusesOversizedRecord appends an epoch whose rows all share
// one 8 MB backing array, 1 GiB of payload in all: the log must refuse it
// from its size alone, before encoding any of it, and stay writable.
func TestFrameRefusesOversizedRecord(t *testing.T) {
	l, err := Open(t.TempDir(), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 1 << 20
	vals := make([]float64, n)
	huge := &EpochRecord{Epoch: 1, N: n, Rows: make([]RowDelta, maxFrameBytes/(8*n)+1)}
	for i := range huge.Rows {
		huge.Rows[i] = RowDelta{Row: i, Values: vals}
	}
	if err := l.Append(huge); err == nil || !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("oversized append: %v, want the frame-cap refusal", err)
	}
	if cap(l.buf) != 0 {
		t.Fatalf("refused record reserved %d bytes", cap(l.buf))
	}
	if err := l.Append(testAdvice(1)); err != nil {
		t.Fatalf("append after the refusal: %v", err)
	}
}
