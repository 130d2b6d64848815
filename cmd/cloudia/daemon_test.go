package main

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/serve"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in   string
		want wal.SyncPolicy
	}{
		{"", wal.SyncAlways},
		{"always", wal.SyncAlways},
		{"batch", wal.SyncBatch},
		{"none", wal.SyncNone},
	}
	for _, c := range cases {
		got, err := parseFsync(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseFsync(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := parseFsync("every-other-tuesday"); err == nil {
		t.Error("bad fsync policy accepted")
	}
}

func TestValidateFlagsDaemonCombos(t *testing.T) {
	cases := []struct {
		name string
		cfg  runConfig
		want string
	}{
		{"listen+serve", runConfig{listen: ":0", walDir: "w", servePath: "b.json"}, "-serve"},
		{"listen+epochs", runConfig{listen: ":0", walDir: "w", epochMS: 20}, "-epoch-ms"},
		{"negative epoch period", runConfig{epochMS: -1}, "-epoch-ms"},
		{"listen without wal dir", runConfig{listen: ":0"}, "-wal-dir"},
		{"listen bad fsync", runConfig{listen: ":0", walDir: "w", fsync: "sometimes"}, "fsync"},
	}
	for _, c := range cases {
		err := validateFlags(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if err := validateFlags(runConfig{listen: ":0", walDir: "w", fsync: "batch"}); err != nil {
		t.Errorf("valid daemon flags rejected: %v", err)
	}
}

// retryJob is a small valid job for the backoff tests; setting block swaps
// the matrix for an epoch channel that never delivers, parking the worker
// that dequeues it until the channel closes.
func retryJob(t *testing.T, block <-chan measure.Epoch) serve.Job {
	t.Helper()
	g, err := core.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	job := serve.Job{
		Tenant: "t", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "g2", RoundBudget: solver.Budget{Nodes: 100},
	}
	if block != nil {
		job.Epochs = block
		return job
	}
	mm := core.NewMutableCostMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				mm.Set(i, j, float64(1+i+j))
			}
		}
	}
	job.Matrix, _ = mm.Snapshot()
	return job
}

// fillQueue submits jobs until the admission queue holds exactly one,
// retrying while the worker is still racing to dequeue its predecessor.
func fillQueue(t *testing.T, srv *serve.Server) *serve.Ticket {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tk, err := srv.Submit(retryJob(t, nil))
		if err == nil {
			return tk
		}
		if !errors.Is(err, serve.ErrBusy) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the parked job")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitWithRetryRidesOutBusy(t *testing.T) {
	// One shard, one queue slot: a parked job holds the worker, a queued
	// one fills admission, so the retried submit starts out ErrBusy.
	srv := serve.New(serve.Config{Shards: 1, QueueDepth: 1})
	park := make(chan measure.Epoch)
	var once sync.Once
	release := func() { once.Do(func() { close(park) }) }
	defer srv.Close()
	defer release()
	parked, err := srv.Submit(retryJob(t, park))
	if err != nil {
		t.Fatal(err)
	}
	// The queue slot frees when the worker dequeues the parked job; poll
	// until this second submit lands in it.
	queued := fillQueue(t, srv)

	// The first backoff sleep releases the parked job; the queue drains
	// while the retry waits, and a later attempt is admitted.
	slept := 0
	tk, err := submitWithRetry(srv, retryJob(t, nil), rand.New(rand.NewSource(1)), func(d time.Duration) {
		if d <= 0 || d > 2*time.Second {
			t.Errorf("backoff slept %v", d)
		}
		if slept == 0 {
			release()
		}
		slept++
		time.Sleep(d)
	})
	if err != nil {
		t.Fatalf("retry gave up: %v", err)
	}
	if slept == 0 {
		t.Fatal("retry succeeded without ever backing off")
	}
	if res := parked.Wait(); res.Err == nil {
		t.Fatal("parked job succeeded without an epoch")
	}
	for _, ticket := range []*serve.Ticket{queued, tk} {
		if res := ticket.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

func TestSubmitWithRetryGivesUpAndPassesOtherErrors(t *testing.T) {
	closed := serve.New(serve.Config{Shards: 1})
	closed.Close()
	rng := rand.New(rand.NewSource(2))
	if _, err := submitWithRetry(closed, retryJob(t, nil), rng, func(time.Duration) {
		t.Fatal("slept on a non-ErrBusy error")
	}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}

	// A queue that never drains exhausts all 7 attempts and surfaces
	// ErrBusy to the caller.
	full := serve.New(serve.Config{Shards: 1, QueueDepth: 1})
	park := make(chan measure.Epoch)
	defer full.Close()
	defer close(park)
	if _, err := full.Submit(retryJob(t, park)); err != nil {
		t.Fatal(err)
	}
	fillQueue(t, full)
	slept := 0
	if _, err := submitWithRetry(full, retryJob(t, nil), rng, func(time.Duration) { slept++ }); !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if slept != 6 {
		t.Fatalf("slept %d times, want 6 (sleeps between 7 attempts)", slept)
	}
}
