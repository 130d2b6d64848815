// Command cloudia-vet is the repo's determinism lint: it runs the
// internal/lint analyzer suite (maprange, baregoroutine, wallclock,
// walrecord) over the deterministic packages, enforcing the bit-equality
// invariants the test suites pin — at build time, on every package.
//
//	go run ./cmd/cloudia-vet [packages]
//
// resolves the package patterns (default ./...) with `go list -export`,
// type-checks each in-scope package against its dependencies' export
// data, and prints every finding with its file:line followed by a
// ready-to-paste //cloudia:nondet-ok suppression template. It exits
// non-zero when any finding survives suppression. This is what `make
// lint` and CI run.
package main

import (
	"os"

	"cloudia/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// analyzers is the gating suite. Kept in one place so the run and the
// -help output agree.
var analyzers = lint.All()
