package lint

import (
	"go/ast"
	"go/types"
)

// BareGoroutine flags raw `go` statements and sync.WaitGroup fan-out in
// the deterministic packages. Their artifacts are built on the calling
// goroutine, and an ad-hoc goroutine with its own reduction is exactly the
// code that passes review and then breaks fingerprint equality under a
// different GOMAXPROCS.
//
// No file is exempt. internal/serve solves each advise on its caller's
// goroutine, and internal/measure's one stream pump carries its reason in
// place. Every spawn needs a //cloudia:nondet-ok <reason> explaining how its
// reduction stays bit-equal (deterministic post-barrier selection,
// disjoint outputs, a single goroutine running the work in order, ...).
var BareGoroutine = &Analyzer{
	Name:  "baregoroutine",
	Doc:   "flags raw go statements and sync.WaitGroup fan-out in the deterministic packages",
	Scope: IsDeterministic,
	Run:   runBareGoroutine,
}

func runBareGoroutine(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Report(n.Go,
					"raw go statement in a deterministic package: build on the calling goroutine, or annotate with %s <why the reduction is deterministic>",
					SuppressionMarker)
			case *ast.Ident:
				if n.Name == "_" {
					return true
				}
				obj := pass.Info.Defs[n]
				if obj == nil {
					return true
				}
				if v, ok := obj.(*types.Var); ok && isWaitGroup(v.Type()) {
					pass.Report(n.Pos(),
						"sync.WaitGroup fan-out in a deterministic package: build on the calling goroutine, or annotate with %s <why the reduction is deterministic>",
						SuppressionMarker)
				}
			}
			return true
		})
	}
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
