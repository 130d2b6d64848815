package solver

import "cloudia/internal/core"

// This file implements the export/adopt path that lets a serving layer
// share Prep artifacts across Problems: cluster-K memo entries and
// cheapest-link rows are immutable once built and are deterministic
// functions of the cost-matrix content, so a cache keyed by
// core.CostMatrix.Fingerprint can hand one tenant's computed artifacts to
// every later problem over an identical matrix (internal/serve).

// RoundedArtifact is an exported cluster-K preprocessing artifact — the
// rounded matrix and its cost-sorted pair list — opaque to callers and
// shared read-only between every Prep that adopts it.
type RoundedArtifact struct {
	k int
	e *prepRounded
}

// ClusterK reports the cluster count the artifact was built for (0 for the
// unclustered entry).
func (a *RoundedArtifact) ClusterK() int { return a.k }

// RowsArtifact is an exported cheapest-link row set (Prep.CheapestRows),
// shared read-only between every Prep that adopts it.
type RowsArtifact struct {
	rows [][]int32
}

// ExportRounded returns the computed cluster-k entry as a shareable
// artifact, or ok=false when the entry has not been computed or errored.
// k <= 0 exports the unclustered entry.
func (pp *Prep) ExportRounded(k int) (*RoundedArtifact, bool) {
	if k < 0 {
		k = 0
	}
	pp.mu.Lock()
	e, ok := pp.rounded[k]
	pp.mu.Unlock()
	if !ok || !e.done.Load() || e.err != nil {
		return nil, false
	}
	return &RoundedArtifact{k: k, e: e}, true
}

// AdoptRounded installs an exported cluster entry into this Prep, so that
// Rounded(k) (and TransposedCosts(k)) serve the shared artifact instead of
// recomputing it. Adoption only fills an empty slot: it reports false when
// this Prep already holds an entry for the artifact's k, computed or in
// flight. Callers must only adopt artifacts whose source matrix content
// (fingerprint) matches this problem's matrix, and must adopt before any
// solver consults the Prep.
func (pp *Prep) AdoptRounded(a *RoundedArtifact) bool {
	if a == nil || a.e == nil {
		return false
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if _, ok := pp.rounded[a.k]; ok {
		return false
	}
	pp.rounded[a.k] = a.e
	return true
}

// ExportCheapestRows returns the computed cheapest-link rows as a shareable
// artifact, or ok=false when they have not been computed yet.
func (pp *Prep) ExportCheapestRows() (*RowsArtifact, bool) {
	if !pp.rowsDone.Load() {
		return nil, false
	}
	return &RowsArtifact{rows: pp.rows}, true
}

// GraphArtifact is an exported transposed-graph family — the reversed
// communication graph and its topological order — shared read-only between
// every Prep that adopts it. Unlike the matrix-derived artifacts it is keyed
// by the graph's content (core.Graph.Fingerprint), so longest-path fleets
// over one topology share the transpose even when their cost matrices all
// differ.
type GraphArtifact struct {
	g        *core.Graph
	order    []core.NodeID
	orderErr error
}

// ExportTransposedGraph returns the computed transposed-graph family as a
// shareable artifact, or ok=false when it has not been built yet. The
// transpose is a pure function of the graph's edge list (in order), so it is
// always canonical.
func (pp *Prep) ExportTransposedGraph() (*GraphArtifact, bool) {
	if !pp.tGraphDone.Load() {
		return nil, false
	}
	return &GraphArtifact{g: pp.tGraph, order: pp.tOrder, orderErr: pp.tOrderErr}, true
}

// AdoptTransposedGraph installs an exported transposed-graph family, so
// TransposedGraph and TransposedTopoOrder serve the shared artifact. It
// reports false when this Prep already built its own (adoption raced a
// solver, or was repeated). Callers must only adopt artifacts whose source
// graph content (fingerprint) matches this problem's graph.
func (pp *Prep) AdoptTransposedGraph(a *GraphArtifact) bool {
	if a == nil || a.g == nil {
		return false
	}
	adopted := false
	pp.tGraphOnce.Do(func() {
		pp.tGraph, pp.tOrder, pp.tOrderErr = a.g, a.order, a.orderErr
		pp.tGraphDone.Store(true)
		adopted = true
	})
	return adopted
}

// AdoptCheapestRows installs an exported row set, so CheapestRows serves
// the shared artifact. It reports false when this Prep already computed its
// rows (adoption raced a solver, or was repeated). The same content
// contract as AdoptRounded applies.
func (pp *Prep) AdoptCheapestRows(a *RowsArtifact) bool {
	if a == nil || a.rows == nil {
		return false
	}
	adopted := false
	pp.rowsOnce.Do(func() {
		pp.rows = a.rows
		pp.rowsDone.Store(true)
		adopted = true
	})
	return adopted
}
