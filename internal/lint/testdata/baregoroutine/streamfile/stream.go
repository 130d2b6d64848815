// Fixture: no file name is exempt — a stream.go in any deterministic
// package is flagged like every other file.
package streamfile

func pump(out chan int, n int) {
	go func() { // want "raw go statement"
		defer close(out)
		for i := 0; i < n; i++ {
			out <- i
		}
	}()
}
