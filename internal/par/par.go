// Package par is the repo's bounded data-parallelism primitive: a tiny,
// dependency-free worker fan-out used by the cold paths (Prep artifact
// construction, multi-tenant WAL replay) to use every core while keeping
// outputs bit-equal to the sequential build.
//
// The determinism contract is structural, not scheduling-based: For splits
// an index range into contiguous chunks and every body writes only into its
// own index range, so the bytes produced are independent of how chunks are
// scheduled; reductions that need an order (pair-list merges, error
// selection, cache re-seeding) happen after the barrier in ascending index
// order. Nothing in this package introduces ordering of its own — a caller
// whose body writes outside its chunk gets the race it wrote.
//
// Workers() == 1 is the standing fallback: For then runs its body inline on
// the calling goroutine, spawning nothing, so the sequential path is
// byte-for-byte and allocation-for-allocation the code that ran before
// parallelism existed.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers holds the configured bound; 0 means "GOMAXPROCS at call time",
// which tracks runtime changes instead of freezing a boot-time snapshot.
var workers atomic.Int64

// SetWorkers bounds the fan-out of every later For call. n <= 0
// restores the default (GOMAXPROCS at each call). n == 1 disables
// goroutine spawning entirely. Values above GOMAXPROCS are honored as
// given — explicit oversubscription is how 1-core machines exercise the
// concurrent paths under the race detector — but the default never
// exceeds GOMAXPROCS.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers reports the effective fan-out bound.
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs body over the index range [0, n) split into at most Workers()
// contiguous chunks, one goroutine per chunk, and returns after every chunk
// completes. body(lo, hi) must confine its writes to data indexed by
// [lo, hi); under that contract the result is bit-equal to body(0, n).
// With one worker (or n <= 1) body runs inline with zero overhead.
func For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		body(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	// The first chunk runs on the calling goroutine: one fewer handoff, and
	// the w == 1 inline semantics fall out of the same code path.
	body(0, chunk)
	wg.Wait()
}
