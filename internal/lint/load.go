package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Unit is one package's worth of lint input: file names on disk plus the
// importer that resolves its dependencies. The driver, cmd/cloudia-vet,
// and the test harness (linttest) reduce their input to a Unit and call
// Check.
type Unit struct {
	// ImportPath is the package's import path, used for analyzer scoping.
	ImportPath string
	// GoFiles are absolute paths of the package's Go files. _test.go files
	// are dropped before parsing: the determinism rules bind production
	// code only.
	GoFiles []string
	// Importer resolves the package's imports during type checking.
	Importer types.Importer
	// GoVersion, when non-empty, pins the language version ("go1.23").
	GoVersion string
}

// Check parses and type-checks the unit, then runs the given analyzers,
// returning their diagnostics. Type errors are returned as an error: the
// suite's findings are only meaningful on code the compiler accepts.
func Check(u Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range u.GoFiles {
		if strings.HasSuffix(filepath.Base(name), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{
		Importer:  u.Importer,
		GoVersion: u.GoVersion,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		Error:     func(error) {}, // collect everything, fail once below
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := conf.Check(u.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", u.ImportPath, err)
	}
	return RunUnit(fset, files, pkg, info, analyzers), nil
}

// sourceImporter type-checks dependencies from source via GOROOT. It backs
// the test harness, where fixture packages import only the standard
// library; cmd/cloudia-vet instead reads the export data `go list
// -export` names. One shared instance amortizes the stdlib type-checking
// across fixtures.
var (
	sourceImporterOnce sync.Once
	sourceImporterInst types.Importer
)

// SourceImporter returns the process-wide source-based importer.
func SourceImporter() types.Importer {
	sourceImporterOnce.Do(func() {
		sourceImporterInst = importer.ForCompiler(token.NewFileSet(), "source", nil)
	})
	return sourceImporterInst
}
