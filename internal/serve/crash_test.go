package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"testing"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// Fault-injection suite: kill the daemon at every WAL crashpoint — first by
// panicking out of the append (the in-process stand-in for SIGKILL: the
// abandoned log's buffered bytes are never flushed, exactly the file state
// a dead process leaves), then by re-execing the test binary and dying with
// os.Exit(137) for real. After each death the daemon is reopened over the
// same directory and must (a) recover to some exact prefix of the
// uninterrupted epoch/fingerprint history and (b) once the lost epochs are
// re-driven, serve advice bit-equal to a daemon that never died.

var crashpoints = []string{
	"append.start", "append.framed", "append.synced",
	"rotate.closed", "rotate.created",
	"compact.written", "compact.removed",
}

const (
	crashTenant = "crash-tenant"
	crashN      = 8
	crashEpochs = 6
	crashSeed   = 9
)

// crashConfig keeps segments tiny and compaction frequent so every
// crashpoint class — append, rotate, compact — fires inside a six-epoch
// workload.
func crashConfig(dir string) DaemonConfig {
	return DaemonConfig{
		Dir:          dir,
		Workers:      1,
		WAL:          wal.Options{SegmentBytes: 256},
		CompactEvery: 3,
	}
}

func crashBase() *core.CostMatrix {
	return testMatrix(rand.New(rand.NewSource(97)), crashN)
}

// crashRows is epoch e's delta: the full matrix at epoch 1, then one row
// rescaled per epoch — a pure function of e, so a resumed driver reproduces
// the uninterrupted history bit-for-bit.
func crashRows(m *core.CostMatrix, e int) []wal.RowDelta {
	if e == 1 {
		return fullRows(m)
	}
	row := e % crashN
	vals := make([]float64, crashN)
	copy(vals, m.Row(row))
	for j := range vals {
		if j != row {
			vals[j] *= 1 + 0.01*float64(e)
		}
	}
	return []wal.RowDelta{{Row: row, Values: vals}}
}

// driveCrashWorkload appends epochs from the daemon's recovered position up
// to crashEpochs, returning the fingerprint logged at each epoch it
// appended.
func driveCrashWorkload(d *Daemon) (map[int]core.Fingerprint, error) {
	start := 0
	if st := d.Stats(); len(st.Tenants) > 0 {
		start = st.Tenants[0].Epoch
	}
	m := crashBase()
	fps := map[int]core.Fingerprint{}
	for e := start + 1; e <= crashEpochs; e++ {
		epoch, fp, err := d.AppendEpoch(crashTenant, crashN, crashRows(m, e), nil)
		if err != nil {
			return fps, err
		}
		if epoch != e {
			return fps, fmt.Errorf("append numbered epoch %d, want %d", epoch, e)
		}
		fps[e] = fp
	}
	return fps, nil
}

func crashAdvise(t *testing.T, d *Daemon) *Result {
	t.Helper()
	return adviseOK(t, d, AdviseRequest{
		Tenant: crashTenant, Graph: testGraph(t, 2, 3), ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "cp", ClusterK: 4, RoundBudget: solver.Budget{Nodes: 10_000},
		Seed: crashSeed, NoWarmStart: true,
	})
}

// crashReference runs the uninterrupted workload once: the per-epoch
// fingerprint history and the advice every recovered daemon must reproduce.
func crashReference(t *testing.T) (map[int]core.Fingerprint, *Result) {
	t.Helper()
	d := openDaemon(t, crashConfig(t.TempDir()))
	defer d.Close()
	fps, err := driveCrashWorkload(d)
	if err != nil {
		t.Fatal(err)
	}
	return fps, crashAdvise(t, d)
}

// checkRecovered asserts the reopened daemon's state is an exact prefix of
// the reference history, re-drives the lost epochs, and demands bit-equal
// advice.
func checkRecovered(t *testing.T, dir string, fps map[int]core.Fingerprint, want *Result) {
	t.Helper()
	re := openDaemon(t, crashConfig(dir))
	defer re.Close()
	st := re.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("recovered %d tenants, want 1", len(st.Tenants))
	}
	tn := st.Tenants[0]
	if tn.Epoch < 0 || tn.Epoch > crashEpochs {
		t.Fatalf("recovered epoch %d outside the driven history", tn.Epoch)
	}
	if tn.Epoch > 0 && tn.Fingerprint != fps[tn.Epoch] {
		t.Fatalf("recovered (epoch %d, fp %016x) is not a prefix: want fp %016x",
			tn.Epoch, uint64(tn.Fingerprint), uint64(fps[tn.Epoch]))
	}
	if _, err := driveCrashWorkload(re); err != nil {
		t.Fatalf("re-driving lost epochs: %v", err)
	}
	got := crashAdvise(t, re)
	if !reflect.DeepEqual(got.Outcome.Deployment, want.Outcome.Deployment) || got.Outcome.Cost != want.Outcome.Cost {
		t.Fatalf("post-crash advice diverged: %v (%g) != %v (%g)",
			got.Outcome.Deployment, got.Outcome.Cost, want.Outcome.Deployment, want.Outcome.Cost)
	}
}

// crashSentinel distinguishes an injected crash from a genuine panic.
type crashSentinel struct{ point string }

// TestCrashpointRecovery dies in-process at each crashpoint: the hook
// panics out of the append, the daemon is abandoned un-Closed (so, as after
// SIGKILL, nothing buffered ever reaches the disk), and a fresh daemon over
// the same directory must recover a prefix and re-serve identical advice.
func TestCrashpointRecovery(t *testing.T) {
	fps, want := crashReference(t)
	for _, point := range crashpoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			fired := false
			wal.SetCrashpointHook(func(name string) {
				if name == point && !fired {
					fired = true
					panic(crashSentinel{point})
				}
			})
			defer wal.SetCrashpointHook(nil)

			func() {
				defer func() {
					r := recover()
					if r == nil {
						return
					}
					if s, ok := r.(crashSentinel); !ok || s.point != point {
						panic(r)
					}
				}()
				d := openDaemon(t, crashConfig(dir))
				// Deliberately never Closed: the crash killed it.
				if _, err := driveCrashWorkload(d); err != nil {
					t.Fatal(err)
				}
			}()
			if !fired {
				t.Fatalf("crashpoint %q never fired", point)
			}
			wal.SetCrashpointHook(nil)

			checkRecovered(t, dir, fps, want)
		})
	}
}

// TestCrashKillRestart re-execs this test binary as a child that arms the
// crashpoint to os.Exit(137) — an actual process death, buffered writes and
// descriptors torn away by the kernel — then recovers the directory the
// corpse left behind.
func TestCrashKillRestart(t *testing.T) {
	if dir := os.Getenv("CLOUDIA_CRASH_DIR"); dir != "" {
		childCrashRun(dir, os.Getenv("CLOUDIA_CRASH_POINT"))
		return
	}
	if testing.Short() {
		t.Skip("re-exec suite skipped in -short")
	}
	fps, want := crashReference(t)
	for _, point := range crashpoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=TestCrashKillRestart$")
			cmd.Env = append(os.Environ(),
				"CLOUDIA_CRASH_DIR="+dir, "CLOUDIA_CRASH_POINT="+point)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 137 {
				t.Fatalf("child died with %v, want exit 137\n%s", err, out)
			}
			checkRecovered(t, dir, fps, want)
		})
	}
}

// childCrashRun is the re-execed child: run the workload, die mid-append.
func childCrashRun(dir, point string) {
	wal.SetCrashpointHook(func(name string) {
		if name == point {
			os.Exit(137)
		}
	})
	d, err := OpenDaemon(crashConfig(dir))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := driveCrashWorkload(d); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The armed crashpoint should have killed us several epochs ago.
	fmt.Fprintf(os.Stderr, "crashpoint %q never fired\n", point)
	os.Exit(1)
}

// TestDaemonGroupCrashSharesSnapshot kills the daemon at every WAL
// crashpoint of a group's second tenant's append: two tenants post one
// equal epoch, and the second dies mid-append. After the restart, and the
// lost epoch re-posted if it was lost, the acks, fingerprints and advice of
// both tenants are bit-equal to a daemon that never died, and the two share
// one snapshot of each matrix after replay.
func TestDaemonGroupCrashSharesSnapshot(t *testing.T) {
	tenants := []string{"group-a", "group-b"}
	m := crashBase()
	type ack struct {
		epoch int
		fp    core.Fingerprint
	}
	post := func(d *Daemon, tenant string) ack {
		t.Helper()
		epoch, fp, err := d.AppendEpoch(tenant, crashN, crashRows(m, 1), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)})
		if err != nil {
			t.Fatal(err)
		}
		return ack{epoch, fp}
	}

	ref := openDaemon(t, crashConfig(t.TempDir()))
	wantAck := post(ref, tenants[0])
	if got := post(ref, tenants[1]); got != wantAck {
		t.Fatalf("group acks differ: %+v != %+v", got, wantAck)
	}
	want := groupAdvise(t, ref, tenants[0])
	sameAdvice(t, "reference group", groupAdvise(t, ref, tenants[1]), want)
	ref.Close()

	// The crashpoints the second tenant's append passes, in order.
	var points []string
	dry := openDaemon(t, crashConfig(t.TempDir()))
	post(dry, tenants[0])
	wal.SetCrashpointHook(func(name string) {
		if !slices.Contains(points, name) {
			points = append(points, name)
		}
	})
	post(dry, tenants[1])
	wal.SetCrashpointHook(nil)
	dry.Close()
	for _, p := range []string{"append.start", "append.framed", "append.synced"} {
		if !slices.Contains(points, p) {
			t.Fatalf("the second append passed crashpoints %v, missing %q", points, p)
		}
	}

	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			d := openDaemon(t, crashConfig(dir))
			if got := post(d, tenants[0]); got != wantAck {
				t.Fatalf("first tenant ack %+v, want %+v", got, wantAck)
			}
			fired := false
			wal.SetCrashpointHook(func(name string) {
				if name == point && !fired {
					fired = true
					panic(crashSentinel{point})
				}
			})
			defer wal.SetCrashpointHook(nil)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if s, ok := r.(crashSentinel); !ok || s.point != point {
							panic(r)
						}
					}
				}()
				// Deliberately never Closed: the crash killed it.
				post(d, tenants[1])
			}()
			if !fired {
				t.Fatalf("crashpoint %q never fired", point)
			}
			wal.SetCrashpointHook(nil)

			re := openDaemon(t, crashConfig(dir))
			defer re.Close()
			st := re.Stats()
			recovered := map[string]ack{}
			for _, tn := range st.Tenants {
				recovered[tn.Tenant] = ack{tn.Epoch, tn.Fingerprint}
			}
			if recovered[tenants[0]] != wantAck {
				t.Fatalf("first tenant recovered %+v, want %+v", recovered[tenants[0]], wantAck)
			}
			switch got := recovered[tenants[1]]; got {
			case wantAck:
			case ack{}:
				if got := post(re, tenants[1]); got != wantAck {
					t.Fatalf("re-posted ack %+v, want %+v", got, wantAck)
				}
			default:
				t.Fatalf("second tenant recovered %+v, not a prefix of %+v", got, wantAck)
			}
			sharesSnapshots(t, re, tenants[0], tenants[1])
			for _, tenant := range tenants {
				sameAdvice(t, tenant+" after the crash", groupAdvise(t, re, tenant), want)
			}
		})
	}
}
