package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	SetWorkers(-3)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() after negative set = %d, want %d", got, want)
	}
}

func TestWorkersHonorsExplicitOversubscription(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(7)
	if got := Workers(); got != 7 {
		t.Fatalf("Workers() = %d, want the explicit 7", got)
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 3, 8} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: chunk [%d,%d) out of range", w, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestForSingleWorkerRunsInline(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	calls := 0
	For(100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline chunk [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("single-worker For made %d calls, want 1", calls)
	}
}
