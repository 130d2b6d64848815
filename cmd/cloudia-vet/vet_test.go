package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tool is the cloudia-vet binary, built once for the whole test binary by
// TestMain.
var tool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cloudia-vet-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tool = filepath.Join(dir, "cloudia-vet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cloudia-vet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runVet runs the tool over every package of the module in dir.
func runVet(dir string) ([]byte, error) {
	cmd := exec.Command(tool, "./...")
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

// seedModule writes a throwaway module named cloudia so package paths land
// in the deterministic scope, with the given file under internal/solver.
func seedModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "solver")
	if err := os.MkdirAll(pkg, 0o777); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module cloudia\n\ngo 1.23\n")
	writeFile(t, filepath.Join(pkg, "solver.go"), src)
	return dir
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}

const violatingSrc = `package solver

func Order(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`

const cleanSrc = `package solver

func Order(keys []string) int {
	n := 0
	for range keys {
		n++
	}
	return n
}
`

// TestGoVetFailsOnSeededMapRange is the acceptance demonstration: a map
// range seeded into a deterministic package makes cloudia-vet exit
// non-zero with a maprange diagnostic and a suppression template under it.
func TestGoVetFailsOnSeededMapRange(t *testing.T) {
	out, err := runVet(seedModule(t, violatingSrc))
	if err == nil {
		t.Fatalf("cloudia-vet passed on a seeded map-range violation:\n%s", out)
	}
	for _, want := range []string{"maprange", "range over map m", "to suppress, put this on the line above", "//cloudia:nondet-ok <why", "1 finding(s)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGoVetPassesOnCleanModule(t *testing.T) {
	if out, err := runVet(seedModule(t, cleanSrc)); err != nil {
		t.Fatalf("cloudia-vet failed on a clean module: %v\n%s", err, out)
	}
}

func TestGoVetPassesWithReasonedSuppression(t *testing.T) {
	out, err := runVet(seedModule(t, strings.Replace(violatingSrc,
		"\tfor k := range m {",
		"\t//cloudia:nondet-ok fixture: callers sort the returned keys\n\tfor k := range m {", 1)))
	if err != nil {
		t.Fatalf("cloudia-vet failed despite a reasoned suppression: %v\n%s", err, out)
	}
}

// TestStandaloneHints checks that, with no flag, every finding is followed
// by its own suppression template naming that finding's line.
func TestStandaloneHints(t *testing.T) {
	src := strings.Replace(violatingSrc, "\treturn keys",
		"\tfor k := range m {\n\t\tkeys = append(keys, k)\n\t}\n\treturn keys", 1)
	out, err := runVet(seedModule(t, src))
	if err == nil {
		t.Fatalf("cloudia-vet passed on two map-range violations:\n%s", out)
	}
	s := string(out)
	if got := strings.Count(s, "[maprange]"); got != 2 {
		t.Errorf("got %d maprange diagnostics, want 2:\n%s", got, s)
	}
	if got := strings.Count(s, "//cloudia:nondet-ok <why this cannot break bit-equality>"); got != 2 {
		t.Errorf("got %d suppression templates, want one per finding (2):\n%s", got, s)
	}
	for _, want := range []string{"put this on the line above", "solver.go:5:", "solver.go:8:", "2 finding(s)"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}
