// Fixture: internal/serve's serve.go is not exempt. The package solves
// each advise on its caller's goroutine, so a spawn here is flagged like
// one in any other file.
package serve

func dispatch(jobs chan func(), workers int) {
	for i := 0; i < workers; i++ {
		go func() { // want "raw go statement"
			for j := range jobs {
				j()
			}
		}()
	}
}
