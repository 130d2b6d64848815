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
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// treeGraph is a 7-node aggregation tree: more sources than sinks, so
// longest-path MIP branches on the transposed graph and matrix.
func treeGraph(t testing.TB) *core.Graph {
	t.Helper()
	g, err := core.AggregationTree(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShareRaceHammer races concurrent jobs attaching shared sets and
// reading them through a mix of solvers and objectives — so rounded
// matrices, pair lists and cheapest rows are built and shared by racing
// readers — against WarmStart installs,
// tenant holds moving to new content (Track), and evictions on a
// 2-fingerprint cache, from 16 goroutines. Run under -race in CI; every
// result must equal a solve of the same problem on a Prep of its own.
func TestShareRaceHammer(t *testing.T) {
	g := treeGraph(t)
	cache := NewCache(2)
	const instances = 10
	base := testMatrix(rand.New(rand.NewSource(7)), instances)
	budget := solver.Budget{Nodes: 300}
	configs := []struct {
		name string
		obj  solver.Objective
	}{
		{"portfolio", solver.LongestLink}, {"mip", solver.LongestPath},
		{"cp", solver.LongestLink}, {"portfolio", solver.LongestPath},
		{"g1", solver.LongestLink}, {"mip", solver.LongestLink},
		{"g1", solver.LongestPath}, {"cp", solver.LongestLink},
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			cfg := configs[w%len(configs)]
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
			solve := func(m *core.CostMatrix, shared bool) (*solver.Result, error) {
				prob, err := solver.NewProblem(g, m, cfg.obj)
				if err != nil {
					return nil, err
				}
				if shared {
					cache.share(m.Fingerprint(), prob.Prep())
				}
				if err := prob.Prep().WarmStart(core.Identity(g.NumNodes())); err != nil {
					return nil, err
				}
				sol, err := advisor.NewSolver(cfg.name, 3, int64(w))
				if err != nil {
					return nil, err
				}
				return sol.Solve(prob, budget)
			}
			got, err := solve(m, true)
			if err != nil {
				errs <- fmt.Errorf("worker %d %s: %w", w, cfg.name, err)
				return
			}
			// Post a changed row and move this tenant's hold to the new
			// content while others read: the retire path (Track).
			row := rng.Intn(instances)
			m2 := m.Clone()
			for j := 0; j < instances; j++ {
				if j != row {
					m2.Set(row, j, 0.2+rng.Float64())
				}
			}
			snap := cache.Track(0, nil, m.Fingerprint(), m)
			cache.Track(m.Fingerprint(), snap, m2.Fingerprint(), m2)
			if _, err := solve(m2, true); err != nil {
				errs <- fmt.Errorf("worker %d %s after Track: %w", w, cfg.name, err)
				return
			}
			want, err := solve(m.Clone(), false)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got.Deployment, want.Deployment) || got.Cost != want.Cost {
				errs <- fmt.Errorf("worker %d %s: shared-set result diverged from an own-Prep solve", w, cfg.name)
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

	live := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
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
	restarted := openDaemon(t, DaemonConfig{Dir: restartDir, Workers: 1})
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
