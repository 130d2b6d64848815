// Fixture: a goroutine in any file of internal/serve is flagged.
package serve

func elsewhere(done chan struct{}) {
	go func() { // want "raw go statement"
		close(done)
	}()
	<-done
}
