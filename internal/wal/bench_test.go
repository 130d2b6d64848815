package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cloudia/internal/core"
)

// BenchmarkWALReplay measures cold-start recovery for one large tenant: a
// 1000-instance cost matrix logged as a full first epoch plus a run of
// partial-epoch deltas, replayed into a fresh MutableCostMatrix with the
// same bit-for-bit fingerprint verification the serve daemon performs
// before admitting traffic.
func BenchmarkWALReplay(b *testing.B) {
	const (
		n           = 1000
		epochs      = 16
		rowsPerTick = 32
	)
	dir := b.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 64 << 20}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	mm := core.NewMutableCostMatrix(n)
	logEpoch := func(epoch int, rows []int) {
		for _, i := range rows {
			for j := 0; j < n; j++ {
				if j != i {
					mm.Set(i, j, rng.Float64()*10)
				}
			}
		}
		rec := &EpochRecord{Epoch: epoch, Fingerprint: mm.Fingerprint(), N: n}
		for _, i := range rows {
			vals := make([]float64, n)
			for j := 0; j < n; j++ {
				vals[j] = mm.At(i, j)
			}
			rec.Rows = append(rec.Rows, RowDelta{Row: i, Values: vals})
		}
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	logEpoch(1, full)
	for e := 2; e <= epochs; e++ {
		rows := make([]int, rowsPerTick)
		for i := range rows {
			rows[i] = rng.Intn(n)
		}
		logEpoch(e, rows)
	}
	wantFP := mm.Fingerprint()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		rm := core.NewMutableCostMatrix(n)
		var gotFP core.Fingerprint
		rl, err := Open(dir, Options{}, func(rec Record) error {
			er := rec.(*EpochRecord)
			for _, d := range er.Rows {
				for j, v := range d.Values {
					rm.Set(d.Row, j, v)
				}
			}
			gotFP = rm.Fingerprint()
			if gotFP != er.Fingerprint {
				b.Fatalf("epoch %d fingerprint mismatch", er.Epoch)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		rl.Close()
		if gotFP != wantFP {
			b.Fatal("replayed matrix diverged")
		}
	}
}

// BenchmarkWALAppendEpoch appends one dense 1000-instance epoch — 1000 rows
// of 1000 values, an 8 MB frame — to a fresh log, the first durable write
// of a tenant's cold start. B/op shows the frame buffer allocated once at
// its exact size; the log's open and close are outside the timer.
func BenchmarkWALAppendEpoch(b *testing.B) {
	const n = 1000
	rng := rand.New(rand.NewSource(42))
	rec := &EpochRecord{Epoch: 1, Fingerprint: 1, N: n, Rows: make([]RowDelta, n)}
	for i := range rec.Rows {
		vals := make([]float64, n)
		for j := range vals {
			if j != i {
				vals[j] = rng.Float64() * 10
			}
		}
		rec.Rows[i] = RowDelta{Row: i, Values: vals}
	}
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, strconv.Itoa(i))
		l, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 64 << 20}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
