package measure

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudia/internal/core"
)

// TestStreamFinalEpochMatchesRun is the "publishing does not perturb the
// measurement" property: for every scheme and a spread of seeds, a stream
// of four epochs ends on a final epoch bit-identical to Run's one final
// epoch — mean, tail and mean+sd matrices, and the sample count.
func TestStreamFinalEpochMatchesRun(t *testing.T) {
	dc, insts := testFleet(t, 7, 21)
	finalOf := func(scheme Scheme, seed int64, periodMS float64) (Epoch, *Result) {
		st, err := stream(dc, insts, Options{Scheme: scheme, DurationMS: 600, Seed: seed, TailAlpha: DefaultTailAlpha}, periodMS)
		if err != nil {
			t.Fatalf("%s/%d: %v", scheme, seed, err)
		}
		var final Epoch
		count := 0
		for ep := range st.Epochs {
			count++
			if ep.Index != count {
				t.Fatalf("%s/%d: epoch index %d at position %d", scheme, seed, ep.Index, count)
			}
			final = ep
		}
		if !final.Final {
			t.Fatalf("%s/%d: last epoch is not final", scheme, seed)
		}
		if want := int(600 / periodMS); count != want {
			t.Fatalf("%s/%d: %d epochs at period %g, want %d", scheme, seed, count, periodMS, want)
		}
		return final, st.Wait()
	}
	same := func(what string, a, b *core.CostMatrix) {
		t.Helper()
		for i := 0; i < a.Size(); i++ {
			for j := 0; j < a.Size(); j++ {
				if a.At(i, j) != b.At(i, j) {
					t.Fatalf("%s differs at (%d,%d): %v vs %v", what, i, j, a.At(i, j), b.At(i, j))
				}
			}
		}
	}
	for _, scheme := range []Scheme{Token, Uncoordinated, Staged} {
		for _, seed := range []int64{1, 42, 1 << 40} {
			four, res4 := finalOf(scheme, seed, 150)
			one, res1 := finalOf(scheme, seed, 600)
			same("mean", four.Matrix, one.Matrix)
			for _, pct := range TailPercentiles {
				same(fmt.Sprintf("p%g", pct), four.Tail(pct).Matrix, one.Tail(pct).Matrix)
			}
			same("mean+sd", four.MeanPlusStd.Matrix, one.MeanPlusStd.Matrix)
			if four.Samples != one.Samples || res4.TotalSamples != res1.TotalSamples || four.Samples != res1.TotalSamples {
				t.Fatalf("%s/%d: samples %d/%d vs %d/%d", scheme, seed, four.Samples, res4.TotalSamples, one.Samples, res1.TotalSamples)
			}
			res, err := Run(dc, insts, Options{Scheme: scheme, DurationMS: 600, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			same("Run mean", res.MeanMatrix(), one.Matrix)
			if res.TotalSamples != one.Samples {
				t.Fatalf("%s/%d: Run samples %d vs %d", scheme, seed, res.TotalSamples, one.Samples)
			}
		}
	}
}

// TestStreamChangedRowsExact verifies the changed-row contract: rows listed
// in ChangedRows differ from the previous epoch, rows not listed are bitwise
// identical.
func TestStreamChangedRowsExact(t *testing.T) {
	dc, insts := testFleet(t, 6, 23)
	st, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 1000, Seed: 5, SnapshotEveryMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Epoch
	for ep := range st.Epochs {
		ep := ep
		if prev != nil {
			changed := make(map[int]bool, len(ep.ChangedRows))
			for _, r := range ep.ChangedRows {
				changed[r] = true
			}
			for i := 0; i < ep.Matrix.Size(); i++ {
				rowDiffers := false
				for j := 0; j < ep.Matrix.Size(); j++ {
					if ep.Matrix.At(i, j) != prev.Matrix.At(i, j) {
						rowDiffers = true
						break
					}
				}
				if rowDiffers != changed[i] {
					t.Fatalf("epoch %d row %d: differs=%v but changed-listed=%v",
						ep.Index, i, rowDiffers, changed[i])
				}
			}
			if ep.AtMS <= prev.AtMS {
				t.Fatalf("epoch %d at %g not after %g", ep.Index, ep.AtMS, prev.AtMS)
			}
			if ep.Samples < prev.Samples {
				t.Fatalf("epoch %d sample count went backwards", ep.Index)
			}
		}
		prev = &ep
	}
	if prev == nil || !prev.Final {
		t.Fatal("stream ended without a final epoch")
	}
}

// TestStreamDefaultEpochPeriod checks the DurationMS/8 default: 7
// intermediate epochs plus the final one.
func TestStreamDefaultEpochPeriod(t *testing.T) {
	dc, insts := testFleet(t, 5, 27)
	st, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range st.Epochs {
		n++
	}
	if n != 8 {
		t.Fatalf("default period published %d epochs, want 8", n)
	}
	res := st.Wait()
	if res == nil || res.TotalSamples == 0 {
		t.Fatal("Wait did not return the aggregate result")
	}
}

// TestStreamValidatesSynchronously ensures option errors surface from Stream
// itself, not from the measurement goroutine.
func TestStreamValidatesSynchronously(t *testing.T) {
	dc, insts := testFleet(t, 3, 29)
	if _, err := Stream(dc, insts, Options{Scheme: "bogus", DurationMS: 10}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if _, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 10, SnapshotEveryMS: -1}); err == nil {
		t.Fatal("negative snapshot period accepted")
	}
	if _, err := Stream(dc, insts[:1], Options{Scheme: Staged, DurationMS: 10}); err == nil {
		t.Fatal("single instance accepted")
	}
}

// TestStreamSpreadSubset checks that a stream asked for one spread matrix
// publishes that one alone, and that it and the mean match the default
// stream's bit for bit: matrices, changed rows and fingerprints.
func TestStreamSpreadSubset(t *testing.T) {
	dc, insts := testFleet(t, 8, 31)
	drain := func(spread Spread) []Epoch {
		st, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 1200, Seed: 7,
			SnapshotEveryMS: 300, TailAlpha: DefaultTailAlpha, Spread: spread})
		if err != nil {
			t.Fatal(err)
		}
		var eps []Epoch
		for ep := range st.Epochs {
			eps = append(eps, ep)
		}
		st.Wait()
		return eps
	}
	same := func(what string, a, b *core.CostMatrix) {
		t.Helper()
		if !slices.Equal(a.OffDiagonal(), b.OffDiagonal()) {
			t.Fatalf("%s matrices differ", what)
		}
	}
	all, p99 := drain(0), drain(SpreadP99)
	if len(all) != len(p99) || len(all) != 4 {
		t.Fatalf("%d and %d epochs, want 4 each", len(all), len(p99))
	}
	for i, ep := range p99 {
		ctx := fmt.Sprintf("epoch %d", ep.Index)
		if len(ep.Tails) != 1 || ep.Tails[0].Pct != 99 || ep.MeanPlusStd != nil {
			t.Fatalf("%s: p99-only stream carries %d tails and mean+sd %v", ctx, len(ep.Tails), ep.MeanPlusStd != nil)
		}
		ref := all[i]
		if len(ref.Tails) != 2 || ref.MeanPlusStd == nil {
			t.Fatalf("%s: default stream carries %d tails and mean+sd %v", ctx, len(ref.Tails), ref.MeanPlusStd != nil)
		}
		same(ctx+" mean", ep.Matrix, ref.Matrix)
		same(ctx+" p99", ep.Tails[0].Matrix, ref.Tail(99).Matrix)
		if ep.Fingerprint != ref.Fingerprint || ep.Tails[0].Fingerprint != ref.Tail(99).Fingerprint {
			t.Fatalf("%s: fingerprints differ", ctx)
		}
		if !slices.Equal(ep.ChangedRows, ref.ChangedRows) || !slices.Equal(ep.Tails[0].ChangedRows, ref.Tail(99).ChangedRows) {
			t.Fatalf("%s: changed rows differ", ctx)
		}
		if ep.Samples != ref.Samples {
			t.Fatalf("%s: %d samples, want %d", ctx, ep.Samples, ref.Samples)
		}
	}
	for _, ep := range drain(SpreadNone) {
		if ep.Tails != nil || ep.MeanPlusStd != nil {
			t.Fatalf("epoch %d: SpreadNone stream carries spread matrices", ep.Index)
		}
	}
	if _, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 10, Spread: 1 << 7}); err == nil {
		t.Fatal("unknown spread bit accepted")
	}
}

// TestStreamMeanPlusStdWithoutSketches: mean+sd comes from the per-link
// moments, so a stream that names it keeps no quantile sketch, and its
// epochs are bit-identical to a sketch-enabled stream's. The zero Spread
// without sketches still publishes the mean alone.
func TestStreamMeanPlusStdWithoutSketches(t *testing.T) {
	dc, insts := testFleet(t, 8, 31)
	drain := func(alpha float64, spread Spread) ([]Epoch, *Result) {
		st, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 1200, Seed: 7,
			SnapshotEveryMS: 300, TailAlpha: alpha, Spread: spread})
		if err != nil {
			t.Fatal(err)
		}
		var eps []Epoch
		for ep := range st.Epochs {
			eps = append(eps, ep)
		}
		return eps, st.Wait()
	}
	lean, res := drain(0, SpreadMeanPlusStd)
	ref, _ := drain(DefaultTailAlpha, SpreadMeanPlusStd)
	if res.tails != nil || res.TailAlpha() != 0 {
		t.Fatal("a mean+sd stream without TailAlpha keeps quantile sketches")
	}
	if len(lean) != len(ref) || len(lean) != 4 {
		t.Fatalf("%d and %d epochs, want 4 each", len(lean), len(ref))
	}
	for i, ep := range lean {
		want := ref[i]
		ctx := fmt.Sprintf("epoch %d", ep.Index)
		if ep.MeanPlusStd == nil || ep.Tails != nil || want.MeanPlusStd == nil {
			t.Fatalf("%s: mean+sd %v, %d tails; want mean+sd alone", ctx, ep.MeanPlusStd != nil, len(ep.Tails))
		}
		if !ep.Matrix.Identical(want.Matrix) || !ep.MeanPlusStd.Matrix.Identical(want.MeanPlusStd.Matrix) {
			t.Fatalf("%s: matrices differ from the sketch-enabled stream's", ctx)
		}
		if ep.Fingerprint != want.Fingerprint || ep.MeanPlusStd.Fingerprint != want.MeanPlusStd.Fingerprint {
			t.Fatalf("%s: fingerprints differ", ctx)
		}
		if !slices.Equal(ep.ChangedRows, want.ChangedRows) || !slices.Equal(ep.MeanPlusStd.ChangedRows, want.MeanPlusStd.ChangedRows) {
			t.Fatalf("%s: changed rows differ", ctx)
		}
		if ep.Samples != want.Samples || ep.Final != want.Final {
			t.Fatalf("%s: samples %d final %v, want %d %v", ctx, ep.Samples, ep.Final, want.Samples, want.Final)
		}
	}
	mean, _ := drain(0, 0)
	for i, ep := range mean {
		if ep.Tails != nil || ep.MeanPlusStd != nil {
			t.Fatalf("epoch %d: the zero Spread without sketches carries spread matrices", ep.Index)
		}
		if !ep.Matrix.Identical(lean[i].Matrix) {
			t.Fatalf("epoch %d: mean matrix differs", ep.Index)
		}
	}
}

// TestStreamStop checks the stop rule: a consumer that stops after the
// first epoch of a long measurement, while the pump is parked on a full
// Epochs, gets Wait back promptly, no goroutine is left behind, and the
// stream holds at most one pending epoch.
func TestStreamStop(t *testing.T) {
	dc, insts := testFleet(t, 10, 33)
	before := runtime.NumGoroutine()
	st, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 1e6, Seed: 3,
		SnapshotEveryMS: 100, TailAlpha: DefaultTailAlpha})
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(st.Epochs); c > 1 {
		t.Fatalf("Epochs holds up to %d pending epochs, want at most 1", c)
	}
	if ep := <-st.Epochs; ep.Index != 1 {
		t.Fatalf("first epoch has index %d", ep.Index)
	}
	awaitPumpParked(t)
	st.Stop()
	st.Stop() // a second Stop is harmless
	waited := make(chan *Result)
	go func() { waited <- st.Wait() }()
	select {
	case res := <-waited:
		if res.TotalSamples == 0 {
			t.Fatal("stopped stream measured nothing")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after Stop")
	}
	for range st.Epochs {
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the stream", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitPumpParked polls the goroutine dump until a stream pump is parked
// publishing an epoch that waits behind an unread one.
func awaitPumpParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			parked := strings.Contains(header, "[select") || strings.Contains(header, "[chan send")
			if parked && strings.Contains(g, "measure.stream.func") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the stream pump never parked on a full Epochs")
		}
		time.Sleep(time.Millisecond)
	}
}
