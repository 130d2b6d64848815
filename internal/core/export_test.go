package core

import "testing"

// CheckAgainstOracle fails t unless every read accessor of g agrees with
// the oracle adjacency builder replaying g's edge list and weights, for
// the external tests that build graphs through other packages.
func CheckAgainstOracle(t *testing.T, g *Graph) {
	t.Helper()
	checkOracle(t, g, oracleOf(t, g))
}
