package serve

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/par"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// dagGraph builds a small DAG (edges ascend), usable under LongestPath.
func dagGraph(t testing.TB, n int) *core.Graph {
	t.Helper()
	g := core.NewGraph(n)
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v+2 < n; v += 2 {
		if err := g.AddEdge(v, v+2); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestPrefetchRaceHammer races the concurrent OnProblem prefetch — the
// par.Do fan-out warming rounded/rows/graph artifacts — against WarmStart
// installs, tenant holds moving to new content (Track), and other tenants'
// prefetches over a 2-fingerprint cache, from 16 goroutines. Run under -race in CI; the warms
// and the solver-side artifact faults share single-flight slots and Prep
// cells, so any missing synchronization surfaces as a race or a lost
// artifact, and the fold-back keeps every error observable.
func TestPrefetchRaceHammer(t *testing.T) {
	defer par.SetWorkers(0)
	// Force real fan-out inside par.Do even on single-core CI machines.
	par.SetWorkers(8)

	g := dagGraph(t, 8)
	cache := NewCache(2)
	const instances = 10
	base := testMatrix(rand.New(rand.NewSource(7)), instances)

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			name := []string{"portfolio", "cp", "g1", "mip"}[w%4]
			obj := solver.LongestLink
			if w%2 == 1 {
				obj = solver.LongestPath
			}
			// Half the goroutines share the base matrix (and so its
			// fingerprint: artifact sharing and single-flight contention),
			// half perturb one row first (eviction pressure on the
			// 2-fingerprint cache).
			m := base.Clone()
			if w%2 == 1 {
				i := rng.Intn(instances)
				for j := 0; j < instances; j++ {
					if i != j {
						m.Set(i, j, 0.2+rng.Float64())
					}
				}
			}
			prob, err := solver.NewProblem(g, m, obj)
			if err != nil {
				errs <- err
				return
			}
			br := &cacheBridge{cache: cache, solverName: name, clusterK: 3, spec: advisor.ObjectiveSpec{Objective: obj}, graph: g}
			if err := br.onProblem(prob, nil, measure.Epoch{}, nil); err != nil {
				errs <- fmt.Errorf("prefetch %s: %w", name, err)
				return
			}
			// Race a warm-start install against other goroutines' prefetches
			// over the same Prep artifacts.
			if err := prob.Prep().WarmStart(core.Identity(g.NumNodes())); err != nil {
				errs <- err
			}
			// Post a changed row and move this tenant's hold to the new
			// content while others warm: the retire path (Track).
			row := rng.Intn(instances)
			m2 := m.Clone()
			for j := 0; j < instances; j++ {
				if j != row {
					m2.Set(row, j, 0.2+rng.Float64())
				}
			}
			cache.Track(0, m.Fingerprint())
			cache.Track(m.Fingerprint(), m2.Fingerprint())
			// And prefetch the evolved fingerprint as a fresh problem, the
			// way a second tenant over the new matrix would.
			p2, err := solver.NewProblem(g, m2.Clone(), solver.LongestLink)
			if err != nil {
				errs <- err
				return
			}
			br2 := &cacheBridge{cache: cache, solverName: "cp", clusterK: 2, spec: advisor.ObjectiveSpec{Objective: solver.LongestLink}, graph: g}
			if err := br2.onProblem(p2, nil, measure.Epoch{}, nil); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// copyDir clones a daemon's WAL tree, so two recoveries can replay the same
// bytes: Advise appends to the log, so reopening one directory twice would
// replay different histories.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDaemonReplayBitEqual restarts a 5-tenant daemon from a copy of its
// WAL and requires the recovered daemon to hold bit-identical state and
// serve bit-identical advice to the daemon that kept running.
func TestDaemonReplayBitEqual(t *testing.T) {
	g := testGraph(t, 2, 3)
	const n, tenants = 8, 5
	budget := solver.Budget{Nodes: 10_000}

	live := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Serve: Config{Shards: 1}})
	defer live.Close()
	for i := 0; i < tenants; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		m := testMatrix(rand.New(rand.NewSource(int64(60+i))), n)
		if _, _, err := live.AppendEpoch(tn, n, fullRows(m), nil); err != nil {
			t.Fatal(err)
		}
		adviseOK(t, live, AdviseRequest{
			Tenant: tn, Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			SolverName: "cp", ClusterK: 3, RoundBudget: budget, Seed: int64(i),
		})
		// A partial second epoch, so replay exercises row deltas too.
		perturbed := append([]float64(nil), m.Row(i%n)...)
		for j := range perturbed {
			if j != i%n {
				perturbed[j] *= 1.5
			}
		}
		if _, _, err := live.AppendEpoch(tn, n, []wal.RowDelta{{Row: i % n, Values: perturbed}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Every append was fsynced before it returned, so copying the log now
	// captures what a crash at this point would leave on disk.
	restartDir := t.TempDir()
	copyDir(t, live.cfg.Dir, restartDir)
	restarted := openDaemon(t, DaemonConfig{Dir: restartDir, Serve: Config{Shards: 1}})
	defer restarted.Close()

	type state struct {
		fps    map[string]core.Fingerprint
		epochs map[string]int
		deps   map[string]core.Deployment
		costs  map[string]float64
	}
	observe := func(d *Daemon) state {
		t.Helper()
		s := state{
			fps:    map[string]core.Fingerprint{},
			epochs: map[string]int{},
			deps:   map[string]core.Deployment{},
			costs:  map[string]float64{},
		}
		for _, tn := range d.Stats().Tenants {
			s.fps[tn.Tenant] = tn.Fingerprint
			s.epochs[tn.Tenant] = tn.Epoch
		}
		for i := 0; i < tenants; i++ {
			tn := fmt.Sprintf("tenant-%d", i)
			res := adviseOK(t, d, AdviseRequest{
				Tenant: tn, Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
				SolverName: "cp", ClusterK: 3, RoundBudget: budget, Seed: 99,
			})
			s.deps[tn] = res.Outcome.Deployment
			s.costs[tn] = res.Outcome.Cost
		}
		return s
	}

	want, got := observe(live), observe(restarted)
	if len(got.fps) != tenants {
		t.Fatalf("recovery found %d tenants, want %d", len(got.fps), tenants)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered daemon diverges from the live one:\nlive:      %+v\nrecovered: %+v", want, got)
	}
}
