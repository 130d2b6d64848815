package main

// The -listen mode: run the durable serve daemon. Tenants post cost-matrix
// epochs and advise requests over HTTP/JSON; every acknowledged epoch and
// every served advice is in the write-ahead log before the response goes
// out, so a killed daemon restarted over the same -wal-dir replays to the
// exact state it acknowledged and serves bit-equal advice. SIGTERM (and
// Ctrl-C) drains: in-flight advises finish and log their advice, then the
// WAL is flushed and closed.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudia/internal/serve"
	"cloudia/internal/wal"
)

// parseFsync maps the -fsync flag onto the WAL sync policy.
func parseFsync(s string) (wal.SyncPolicy, error) {
	switch s {
	case "always", "":
		return wal.SyncAlways, nil
	case "batch":
		return wal.SyncBatch, nil
	case "none":
		return wal.SyncNone, nil
	}
	return 0, fmt.Errorf("unknown -fsync policy %q (want always, batch, or none)", s)
}

func runDaemon(cfg runConfig) error {
	sync, err := parseFsync(cfg.fsync)
	if err != nil {
		return err
	}
	d, err := serve.OpenDaemon(serve.DaemonConfig{
		Dir:     cfg.walDir,
		Workers: cfg.workers,
		WAL:     wal.Options{Sync: sync},
	})
	if err != nil {
		return err
	}

	handler := d.Handler()
	if cfg.pprof {
		// Profiles mount on the daemon's own mux, never the default one, so
		// the endpoints exist only when explicitly asked for: a production
		// daemon does not expose heap contents and CPU samples by accident.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: cfg.listen, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	recovered := 0
	for _, tn := range d.Stats().Tenants {
		recovered += int(tn.WAL.RecoveredRecords)
	}
	fmt.Fprintf(os.Stderr, "cloudia: serving on %s (wal %s, %d tenants recovered, %d records replayed)\n",
		cfg.listen, cfg.walDir, len(d.Stats().Tenants), recovered)

	select {
	case err := <-errCh:
		d.Close()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "cloudia: %v, draining\n", sig)
	}

	// Stop accepting HTTP first, then drain the daemon and flush the WAL —
	// the advice of every advise admitted before the signal is on disk when
	// we exit.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
