// Package lint is the repo's determinism lint suite: a set of static
// analyzers that machine-check the bit-equality invariants every PR since
// the streaming epoch work has staked its correctness story on. Prep
// artifacts, WAL replay fingerprints, sketch merges, and portfolio
// tie-breaks are all required to be bit-identical across worker counts,
// restarts, and dispatch orders — and a single stray `range` over a map or
// an ad-hoc goroutine spawn can silently break that. The analyzers here
// turn those invariants from test-suite folklore into build-time checks,
// run over the whole repo by `cmd/cloudia-vet` (see `make lint`).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built on the standard library
// only, because the module has no external dependencies: a Pass carries
// the parsed files and type information for one package, analyzers walk
// the AST and report, and the driver owns loading and output.
//
// Suppressions: a finding is silenced by the comment
//
//	//cloudia:nondet-ok <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — a bare marker still reports, asking for one — so every
// deliberate exception documents why it cannot break determinism.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SuppressionMarker is the comment prefix that silences a finding when
// followed by a non-empty reason.
const SuppressionMarker = "//cloudia:nondet-ok"

// An Analyzer is one determinism check. Unlike x/tools analyzers there are
// no facts or dependencies between analyzers: every check here is local to
// one package's syntax and types.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "maprange".
	Name string
	// Doc is a one-paragraph description shown by `cloudia-vet -help`.
	Doc string
	// Scope reports whether the analyzer applies to the package with the
	// given import path. Nil means every package.
	Scope func(pkgPath string) bool
	// Run walks the pass and reports findings via pass.Report.
	Run func(pass *Pass)
}

// A Diagnostic is one reported finding, already positioned and filtered
// through the suppression rules.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one package's worth of parsed, type-checked input to one
// analyzer's Run.
type Pass struct {
	Fset *token.FileSet
	// Files are the package's non-test files. The driver excludes _test.go
	// files before parsing: test code may use maps, goroutines, and wall
	// clocks freely.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer     *Analyzer
	suppressions map[string]map[int]*suppression
	diags        *[]Diagnostic
}

// suppression is one //cloudia:nondet-ok comment found in a file.
type suppression struct {
	reason   string
	pos      token.Position
	reported bool // a reason-less marker reports once, not per finding
}

// Report files a finding at pos unless a suppression with a reason covers
// that line (same line as the finding or the line directly above).
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if s := p.suppressionFor(position); s != nil {
		if s.reason != "" {
			return
		}
		if !s.reported {
			s.reported = true
			*p.diags = append(*p.diags, Diagnostic{
				Analyzer: p.analyzer.Name,
				Pos:      s.pos,
				Message:  SuppressionMarker + " needs a reason to suppress a finding: " + SuppressionMarker + " <why this cannot break bit-equality>",
			})
		}
		// The bare marker shows intent but earns nothing: fall through and
		// report the underlying finding too.
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressionFor(pos token.Position) *suppression {
	lines := p.suppressions[pos.Filename]
	if s := lines[pos.Line]; s != nil {
		return s
	}
	return lines[pos.Line-1]
}

// scanSuppressions indexes every //cloudia:nondet-ok comment by file and
// line so Report can consult them in O(1).
func scanSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int]*suppression {
	out := make(map[string]map[int]*suppression)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, SuppressionMarker) {
					continue
				}
				rest := c.Text[len(SuppressionMarker):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //cloudia:nondet-okay, not ours
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*suppression)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = &suppression{reason: strings.TrimSpace(rest), pos: pos}
			}
		}
	}
	return out
}

// RunUnit runs every applicable analyzer over one type-checked package and
// returns the surviving diagnostics sorted by position (then analyzer
// name), so output order is itself deterministic.
func RunUnit(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	supp := scanSuppressions(fset, files)
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkg.Path()) {
			continue
		}
		a.Run(&Pass{
			Fset:         fset,
			Files:        files,
			Pkg:          pkg,
			Info:         info,
			analyzer:     a,
			suppressions: supp,
			diags:        &diags,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// deterministicPkgs are the packages whose outputs must be bit-identical
// across runs, worker counts, and restarts: the solver pipeline from cost
// matrices through advice, the WAL that replays it, and the serving layer
// that caches it. Subpackages (e.g. solver/cp) inherit the classification.
var deterministicPkgs = []string{
	"cloudia/internal/advisor",
	"cloudia/internal/cluster",
	"cloudia/internal/core",
	"cloudia/internal/measure",
	"cloudia/internal/serve",
	"cloudia/internal/sketch",
	"cloudia/internal/solver",
	"cloudia/internal/wal",
}

// IsDeterministic reports whether pkgPath is one of the bit-equality
// packages (or a subpackage of one).
func IsDeterministic(pkgPath string) bool {
	for _, p := range deterministicPkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// scopePaths returns a Scope matching exactly the given package paths and
// their subpackages.
func scopePaths(paths ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, p := range paths {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}
}

// funcFor returns the innermost function declaration enclosing pos in f,
// or nil for package-level positions.
func funcFor(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}

// All returns the full determinism suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, BareGoroutine, WallClock, WALRecord}
}
