// Fixture: internal/measure's stream.go is not exempt. A bare spawn there
// is flagged; the pump goroutine carries a reasoned suppression instead.
package measure

func pump(out chan int, n int) {
	go func() { // want "raw go statement"
		defer close(out)
		for i := 0; i < n; i++ {
			out <- i
		}
	}()
}

func reasoned(out chan int, n int) {
	//cloudia:nondet-ok one goroutine publishes in order; the consumer reads what it sends
	go func() {
		defer close(out)
		for i := 0; i < n; i++ {
			out <- i
		}
	}()
}
