package measure

import (
	"fmt"
	"testing"

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
