// Fixture: cross-package guard. Loaded under cloudia/internal/bench (or any
// out-of-scope path): packages outside the deterministic scope spawn freely.
package free

import "sync"

func fanOut(fns []func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}
