package lint_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptExports are the exported names under internal/ that no non-test
// code reads but that stay on purpose, one reason each. Keys are written
// the way a caller would: package.Name, or package.Type.Method.
var keptExports = map[string]string{
	"core.SIPToLLNDP":              "the paper's hardness reduction from subgraph isomorphism to LLNDP",
	"core.SIPToLPNDP":              "the paper's hardness reduction from subgraph isomorphism to LPNDP",
	"core.EmbeddingRespectsHost":   "checks an embedding the hardness reductions map back",
	"core.RandomDAG":               "random-DAG generator that many test files draw from",
	"solvertest.PlantedLL":         "test helper: planted longest-link instances",
	"solvertest.PlantedLP":         "test helper: planted longest-path instances",
	"solvertest.Realistic":         "test helper: realistic cost matrices",
	"wal.SetCrashpointHook":        "fault-injection seam for the crash tests",
	"wal.FailNextSync":             "fault-injection seam for the fail-closed tests",
	"cloud.Provider.LiveInstances": "tests check that no instance leaks",
	"netsim.Sim.MessagesSent":      "the simulator's invariant tests read it",
	"netsim.Sim.Pending":           "the simulator's invariant tests read it",
	"cluster.Rounded.Fit":          "the oracle test compares the fitted k-means",
}

// exportDecl is one exported declaration and the byte ranges that make up
// its own declaration, where a mention of its name does not count as use.
type exportDecl struct {
	key  string
	name string
	own  []span
	typ  string // for a type, its key in the receivers map
}

type span struct {
	file     string
	from, to int
}

// TestNoUnusedExports lists every exported top-level func, type, var and
// const, and every exported method on an exported type, declared in a
// non-test file under internal/, and fails on each whose identifier
// appears nowhere in the non-test code of this module or of
// cmd/cloudia-perf outside its own declaration. It only parses: a name is
// used when any identifier spells it, so the check can miss a dead name
// that shares its spelling with a live one, but never flags a live one.
func TestNoUnusedExports(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var decls []exportDecl
	idents := map[string][]span{}    // identifier -> every place it occurs in code
	receivers := map[string][]span{} // package dir joined with type name -> its methods' receivers

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tf := fset.File(f.Pos())
		var s scanner.Scanner
		s.Init(tf, src, nil, 0) // mode 0 skips comments
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				off := tf.Offset(pos)
				idents[lit] = append(idents[lit], span{path, off, off + len(lit)})
			}
		}
		if rel, _ := filepath.Rel(root, path); strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			decls = append(decls, exportedDecls(fset, path, f, receivers)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		d.own = append(d.own, receivers[d.typ]...)
		used := slices.ContainsFunc(idents[d.name], func(at span) bool {
			return !slices.ContainsFunc(d.own, func(o span) bool {
				return o.file == at.file && o.from <= at.from && at.to <= o.to
			})
		})
		_, kept := keptExports[d.key]
		switch {
		case used && kept:
			t.Errorf("%s is on keptExports but is used; drop its entry", d.key)
		case !used && !kept:
			unused = append(unused, d.key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(keptExports)) {
		if !declared[key] {
			t.Errorf("%s is on keptExports but is not declared; drop its entry", key)
		}
	}
	slices.Sort(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no non-test code uses it: delete or unexport it, or add it to keptExports with a reason", key)
	}
}

// exportedDecls returns the exported declarations of one file and adds the
// receivers of all its methods to receivers. A type's own declaration also
// covers the receivers of its methods, so a type that only its own methods
// name counts as unused.
func exportedDecls(fset *token.FileSet, path string, f *ast.File, receivers map[string][]span) []exportDecl {
	pkg, dir := f.Name.Name, filepath.Dir(path)
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	own := func(n ast.Node) span { return span{path, off(n.Pos()), off(n.End())} }

	var out []exportDecl
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				if decl.Name.IsExported() {
					out = append(out, exportDecl{pkg + "." + decl.Name.Name, decl.Name.Name, []span{own(decl)}, ""})
				}
				continue
			}
			typ := receiverType(decl.Recv.List[0].Type)
			key := filepath.Join(dir, typ)
			receivers[key] = append(receivers[key], own(decl.Recv))
			if ast.IsExported(typ) && decl.Name.IsExported() {
				out = append(out, exportDecl{pkg + "." + typ + "." + decl.Name.Name, decl.Name.Name, []span{own(decl)}, ""})
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						out = append(out, exportDecl{pkg + "." + spec.Name.Name, spec.Name.Name, []span{own(spec)}, filepath.Join(dir, spec.Name.Name)})
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						if name.IsExported() {
							out = append(out, exportDecl{pkg + "." + name.Name, name.Name, []span{own(spec)}, ""})
						}
					}
				}
			}
		}
	}
	return out
}

// receiverType names the type of a method receiver: T, *T, T[P] or *T[P].
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
