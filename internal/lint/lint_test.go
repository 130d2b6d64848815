package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudia/internal/lint"
)

func TestIsDeterministic(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"cloudia/internal/core", true},
		{"cloudia/internal/solver", true},
		{"cloudia/internal/solver/cp", true},
		{"cloudia/internal/wal", true},
		{"cloudia/internal/serve", true},
		{"cloudia/internal/advisor", true},
		{"cloudia/internal/measure", true},
		{"cloudia/internal/sketch", true},
		{"cloudia/internal/cluster", true},
		{"cloudia/internal/bench", false},
		{"cloudia/internal/workload", false},
		{"cloudia/internal/servemetrics", false}, // prefix lookalike
		{"cloudia/internal", false},
		{"cloudia/cmd/cloudia", false},
		{"fmt", false},
		{"", false},
	}
	for _, c := range cases {
		if got := lint.IsDeterministic(c.path); got != c.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestAllAnalyzersAreWellFormed(t *testing.T) {
	all := lint.All()
	if len(all) != 4 {
		t.Fatalf("expected the four-analyzer suite, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil || a.Scope == nil {
			t.Errorf("analyzer %+v is missing a required field", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"maprange", "baregoroutine", "wallclock", "walrecord"} {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
}

// checkSource writes src as one fixture file and runs the full suite over
// it under the given import path.
func checkSource(t *testing.T, importPath, src string) ([]lint.Diagnostic, error) {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	return lint.Check(lint.Unit{
		ImportPath: importPath,
		GoFiles:    []string{file},
		Importer:   lint.SourceImporter(),
	}, lint.All())
}

func TestCheckReportsTypeErrors(t *testing.T) {
	_, err := lint.Check(lint.Unit{
		ImportPath: "cloudia/internal/core",
		GoFiles:    []string{writeTemp(t, "broken.go", "package core\n\nvar x undefinedType\n")},
		Importer:   lint.SourceImporter(),
	}, lint.All())
	if err == nil || !strings.Contains(err.Error(), "typecheck") {
		t.Fatalf("expected a typecheck error, got %v", err)
	}
}

func TestCheckReportsParseErrors(t *testing.T) {
	_, err := lint.Check(lint.Unit{
		ImportPath: "cloudia/internal/core",
		GoFiles:    []string{writeTemp(t, "broken.go", "package core\n\nfunc {\n")},
		Importer:   lint.SourceImporter(),
	}, lint.All())
	if err == nil {
		t.Fatal("expected a parse error, got none")
	}
}

func TestCheckSkipsTestOnlyUnits(t *testing.T) {
	diags, err := lint.Check(lint.Unit{
		ImportPath: "cloudia/internal/core",
		GoFiles:    []string{writeTemp(t, "only_test.go", "package core\n\nfunc f(m map[int]int) {\n\tfor k := range m {\n\t\t_ = k\n\t}\n}\n")},
		Importer:   lint.SourceImporter(),
	}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("a unit of only _test.go files must produce nothing, got %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	diags, err := checkSource(t, "cloudia/internal/core",
		"package core\n\nfunc f(m map[int]int) int {\n\ts := 0\n\tfor k := range m {\n\t\ts += k\n\t}\n\treturn s\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("expected one diagnostic, got %v", diags)
	}
	s := diags[0].String()
	if !strings.Contains(s, "fixture.go:5:2:") || !strings.HasSuffix(s, "[maprange]") {
		t.Errorf("diagnostic string %q missing position prefix or analyzer suffix", s)
	}
}

// TestDiagnosticOrderIsDeterministic runs the suite over a fixture whose
// violations interleave analyzers and lines, twice, asserting identical
// ordered output — the lint tool obeys its own rules.
func TestDiagnosticOrderIsDeterministic(t *testing.T) {
	src := "package solver\n\nimport \"time\"\n\nfunc f(m map[int]int) {\n\tgo func() { _ = time.Now() }()\n\tfor k := range m {\n\t\t_ = k\n\t}\n}\n"
	first, err := checkSource(t, "cloudia/internal/solver", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("expected baregoroutine+wallclock+maprange, got %v", first)
	}
	// Same line, different columns: the go statement precedes time.Now.
	if first[0].Analyzer != "baregoroutine" || first[1].Analyzer != "wallclock" || first[2].Analyzer != "maprange" {
		t.Errorf("diagnostics out of positional order: %v", first)
	}
	second, err := checkSource(t, "cloudia/internal/solver", src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Message != second[i].Message || first[i].Pos.Line != second[i].Pos.Line {
			t.Fatalf("diagnostic order changed between runs:\n%v\n%v", first, second)
		}
	}
}

func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	return file
}
