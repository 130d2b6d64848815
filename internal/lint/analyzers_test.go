package lint_test

import (
	"testing"

	"cloudia/internal/lint"
	"cloudia/internal/lint/linttest"
)

// Each fixture package is loaded under an import path chosen by the test,
// which is how scope rules (deterministic vs exempt vs out-of-scope
// packages) are exercised without fixtures living at the real paths.

func TestMapRangeDeterministic(t *testing.T) {
	linttest.Run(t, lint.MapRange, "testdata/maprange/det", "cloudia/internal/core")
}

func TestMapRangeSubpackageInheritsScope(t *testing.T) {
	// A subpackage of a deterministic package is in scope too.
	linttest.Run(t, lint.MapRange, "testdata/maprange/det", "cloudia/internal/solver/cp")
}

func TestMapRangeSuppressions(t *testing.T) {
	linttest.Run(t, lint.MapRange, "testdata/maprange/suppress", "cloudia/internal/wal")
}

func TestMapRangeOutOfScope(t *testing.T) {
	linttest.Run(t, lint.MapRange, "testdata/maprange/free", "cloudia/internal/workload")
}

func TestMapRangePrefixIsNotScope(t *testing.T) {
	// Path-prefix lookalikes ("servemetrics" vs "serve") are not in scope.
	linttest.Run(t, lint.MapRange, "testdata/maprange/free", "cloudia/internal/servemetrics")
}

func TestBareGoroutineDeterministic(t *testing.T) {
	linttest.Run(t, lint.BareGoroutine, "testdata/baregoroutine/det", "cloudia/internal/solver")
}

func TestBareGoroutineServeNotExempt(t *testing.T) {
	// internal/serve solves each advise on its caller's goroutine, so none
	// of its files is exempt: serve.go is flagged like other.go.
	linttest.Run(t, lint.BareGoroutine, "testdata/baregoroutine/serve", "cloudia/internal/serve")
}

func TestBareGoroutineMeasureStreamNotExempt(t *testing.T) {
	// internal/measure's stream pump carries its own reason, so stream.go
	// gets no exemption: a bare spawn there is flagged.
	linttest.Run(t, lint.BareGoroutine, "testdata/baregoroutine/measure", "cloudia/internal/measure")
}

func TestBareGoroutineOutOfScope(t *testing.T) {
	linttest.Run(t, lint.BareGoroutine, "testdata/baregoroutine/free", "cloudia/internal/bench")
}

func TestBareGoroutineExemptFileNameBoundToPackage(t *testing.T) {
	// No file name earns an exemption: a stream.go in another
	// deterministic package is flagged too.
	linttest.Run(t, lint.BareGoroutine, "testdata/baregoroutine/streamfile", "cloudia/internal/sketch")
}

func TestWallClockDeterministic(t *testing.T) {
	linttest.Run(t, lint.WallClock, "testdata/wallclock/det", "cloudia/internal/solver/anneal")
}

func TestWallClockOutOfScope(t *testing.T) {
	// serve and advisor measure real latency; wallclock binds only the
	// solver/cluster/sketch search paths.
	linttest.Run(t, lint.WallClock, "testdata/wallclock/free", "cloudia/internal/serve")
}

func TestWALRecordCodec(t *testing.T) {
	linttest.Run(t, lint.WALRecord, "testdata/walrecord/wal", "cloudia/internal/wal")
}

func TestWALRecordOutOfScope(t *testing.T) {
	linttest.Run(t, lint.WALRecord, "testdata/walrecord/free", "cloudia/internal/netsim")
}
