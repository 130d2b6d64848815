package serve

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

func cacheTestProblem(t testing.TB, m *core.CostMatrix) *solver.Problem {
	t.Helper()
	g := testGraph(t, 2, 4)
	p, err := solver.NewProblem(g, m, solver.LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A cache hit must hand the adopter the donor's exact rounded set, and it
// must be bit-identical to what the adopter would have computed.
func TestCacheRoundedHitServesDonorArtifacts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := testMatrix(rng, 12)
	fp := m.Fingerprint()
	c := NewCache(4)

	donor := cacheTestProblem(t, m)
	hit, err := c.Rounded(fp, 4, donor.Prep())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported a hit")
	}
	adopter := cacheTestProblem(t, m.Clone())
	hit, err = c.Rounded(fp, 4, adopter.Prep())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second request over equal content missed")
	}
	// A repeated request from a Prep that already read the artifact counts
	// as a miss, not an error.
	if hit, err := c.Rounded(fp, 4, adopter.Prep()); hit || err != nil {
		t.Fatalf("repeat hit=%v err=%v, want miss", hit, err)
	}
	dSet, _ := donor.Prep().RoundedSet(4)
	aSet, _ := adopter.Prep().RoundedSet(4)
	if dSet != aSet {
		t.Fatal("adopted rounded set is not the donor's")
	}
	am, aPairs, _ := adopter.Prep().Rounded(4)
	cold := cacheTestProblem(t, m.Clone())
	cm, cPairs, _ := cold.Prep().Rounded(4)
	for i := 0; i < m.Size(); i++ {
		if !reflect.DeepEqual(cm.Row(i), am.Row(i)) {
			t.Fatalf("row %d of cached artifact differs from a cold compute", i)
		}
	}
	if !reflect.DeepEqual(cPairs, aPairs) {
		t.Fatal("cached pair list differs from a cold compute")
	}
}

// The cheapest rows are not cached: CheapestRows never hits, counts
// nothing and leaves the cache empty, and each Prep builds its own rows.
func TestCacheCheapestRowsHit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := testMatrix(rng, 10)
	fp := m.Fingerprint()
	c := NewCache(4)
	donor := cacheTestProblem(t, m)
	adopter := cacheTestProblem(t, m.Clone())
	for _, p := range []*solver.Problem{donor, adopter, adopter} {
		if hit := c.CheapestRows(fp, p.Prep()); hit {
			t.Fatal("a rows request reported a hit")
		}
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("rows requests changed the cache: %+v", st)
	}
	dr, ar := donor.Prep().CheapestRows(), adopter.Prep().CheapestRows()
	if &dr[0][0] == &ar[0][0] || !reflect.DeepEqual(dr, ar) {
		t.Fatal("the two Preps' rows are not equal, separate copies")
	}
}

// Distinct cluster counts are distinct artifacts under one fingerprint.
func TestCachePerClusterK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testMatrix(rng, 10)
	fp := m.Fingerprint()
	c := NewCache(4)
	p := cacheTestProblem(t, m)
	if _, err := c.Rounded(fp, 3, p.Prep()); err != nil {
		t.Fatal(err)
	}
	if hit, _ := c.Rounded(fp, 5, p.Prep()); hit {
		t.Fatal("k=5 hit the k=3 artifact")
	}
	p2 := cacheTestProblem(t, m.Clone())
	if hit, _ := c.Rounded(fp, 5, p2.Prep()); !hit {
		t.Fatal("k=5 artifact not shared on second request")
	}
}

// LRU capacity must evict the least recently used fingerprint.
func TestCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewCache(2)
	var fps []core.Fingerprint
	for i := 0; i < 3; i++ {
		m := testMatrix(rng, 8)
		fp := m.Fingerprint()
		fps = append(fps, fp)
		p := cacheTestProblem(t, m)
		if _, err := c.Rounded(fp, 3, p.Prep()); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Matrices != 2 {
		t.Fatalf("evictions=%d matrices=%d, want 1 and 2", st.Evictions, st.Matrices)
	}
	// The first fingerprint was the LRU victim: re-requesting it misses.
	m := testMatrix(rand.New(rand.NewSource(4)), 8) // same seed: same first matrix
	p := cacheTestProblem(t, m)
	if hit, _ := c.Rounded(fps[0], 3, p.Prep()); hit {
		t.Fatal("evicted fingerprint still hit")
	}
}

// Track retires a fingerprint's artifacts when its last holder moves to
// new content, and not before: content another tenant still holds stays.
func TestCacheTrackRetiresLastHolder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := testMatrix(rng, 8)
	fp := m.Fingerprint()
	c := NewCache(4)
	p := cacheTestProblem(t, m)
	if _, err := c.Rounded(fp, 3, p.Prep()); err != nil {
		t.Fatal(err)
	}
	next := testMatrix(rng, 8)
	nfp := next.Fingerprint()
	a := c.Track(0, nil, fp, m)         // tenant a arrives at fp
	b := c.Track(0, nil, fp, m.Clone()) // tenant b holds equal content
	if b != a {
		t.Fatal("equal content committed two snapshots")
	}
	a = c.Track(fp, a, fp, a)     // same content: the hold stays
	a = c.Track(fp, a, nfp, next) // a moves on; b still holds fp
	if st := c.Stats(); st.Superseded != 0 || st.Matrices != 1 {
		t.Fatalf("fingerprint retired while a tenant still held it: %+v", st)
	}
	b = c.Track(fp, b, nfp, next.Clone()) // b moves on: last holder gone
	if st := c.Stats(); st.Superseded != 1 || st.Matrices != 0 {
		t.Fatalf("last holder's move did not retire the fingerprint: %+v", st)
	}
	if b != next || a != next || len(c.held) != 1 || len(c.held[nfp]) != 1 || c.held[nfp][0].holders != 2 {
		t.Fatalf("held = %v, want only next's content, held twice", c.held)
	}
}

// Track shares a snapshot only with identical bits: under one fingerprint,
// a matrix that differs — -0 against +0 on the diagonal, or another size —
// keeps its own snapshot, each content is released on its own, and the
// fingerprint's artifacts retire only when no content is left at it.
func TestCacheTrackSharesOnlyIdenticalBits(t *testing.T) {
	m := testMatrix(rand.New(rand.NewSource(8)), 9)
	fp := m.Fingerprint() // forged below for the other contents
	neg := m.Clone()
	neg.Set(3, 3, math.Copysign(0, -1))
	small := testMatrix(rand.New(rand.NewSource(8)), 8)
	c := NewCache(4)
	if _, err := c.Rounded(fp, 3, cacheTestProblem(t, m).Prep()); err != nil {
		t.Fatal(err)
	}
	a := c.Track(0, nil, fp, m)
	b := c.Track(0, nil, fp, neg)
	s := c.Track(0, nil, fp, small)
	if a != m || b != neg || s != small {
		t.Fatal("an equal fingerprint over different bits shared a snapshot")
	}
	if b2 := c.Track(0, nil, fp, neg.Clone()); b2 != neg {
		t.Fatal("identical -0 content did not share the -0 snapshot")
	}
	st := c.Stats()
	if st.Snapshots != 3 || st.SnapshotHolders != 4 || st.SnapshotBytes != 8*(81+81+64) {
		t.Fatalf("stats %+v: want 3 snapshots of %d bytes held 4 times", st, 8*(81+81+64))
	}
	c.Track(fp, a, 0, nil)
	if st := c.Stats(); st.Snapshots != 2 || st.Superseded != 0 || st.Matrices != 1 {
		t.Fatalf("after the +0 content's last holder left: %+v; want 2 snapshots and the set kept", st)
	}
	c.Track(fp, neg, 0, nil)
	c.Track(fp, neg, 0, nil)
	c.Track(fp, small, 0, nil)
	if st := c.Stats(); st.Snapshots != 0 || st.SnapshotHolders != 0 || st.Superseded != 1 || st.Matrices != 0 || len(c.held) != 0 {
		t.Fatalf("after every holder left: %+v, %d fingerprints held", st, len(c.held))
	}
}

// 16 goroutines hammer concurrent lookups over a handful of fingerprints
// while an invalidator races Track retirements and capacity evictions
// against them. Run under -race; correctness assertion: every adopted set
// matches a cold compute for its content.
func TestCacheConcurrentLookupsRacingInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const matrices = 4
	type content struct {
		m  *core.CostMatrix
		fp core.Fingerprint
	}
	var contents []content
	for i := 0; i < matrices; i++ {
		m := testMatrix(rng, 10)
		contents = append(contents, content{m: m, fp: m.Fingerprint()})
	}
	// Reference pair lists from cold computes.
	refPairs := make([][]core.CostPair, matrices)
	for i, ct := range contents {
		p := cacheTestProblem(t, ct.m.Clone())
		_, pairs, err := p.Prep().Rounded(3)
		if err != nil {
			t.Fatal(err)
		}
		refPairs[i] = pairs
	}

	c := NewCache(2) // tight capacity: evictions race the lookups too
	stop := make(chan struct{})
	var invalidator sync.WaitGroup
	invalidator.Add(1)
	go func() {
		defer invalidator.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			ct := contents[i%matrices]
			snap := c.Track(0, nil, ct.fp, ct.m)
			c.Track(ct.fp, snap, 0, nil)
			i++
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 40; iter++ {
				idx := rng.Intn(matrices)
				ct := contents[idx]
				p := cacheTestProblem(t, ct.m.Clone())
				if _, err := c.Rounded(ct.fp, 3, p.Prep()); err != nil {
					t.Error(err)
					return
				}
				_, pairs, err := p.Prep().Rounded(3)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(pairs, refPairs[idx]) {
					t.Errorf("goroutine %d iter %d: adopted set diverged from cold compute", g, iter)
					return
				}
				c.CheapestRows(ct.fp, p.Prep())
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	invalidator.Wait()
}

// TestCacheStatsBytes checks the resident size a served rounded set
// reports: at 1000 instances and k = 20 a class id per cell, about 1 MB,
// where the float64 matrix and the CostPair list it replaced held 24 MB.
func TestCacheStatsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testMatrix(rng, 1000)
	fp := m.Fingerprint()
	c := NewCache(2)
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("empty cache reports %d bytes", st.Bytes)
	}
	if _, err := c.Rounded(fp, 20, cacheTestProblem(t, m).Prep()); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Matrices != 1 || st.Bytes < 950_000 || st.Bytes > 1_050_000 {
		t.Fatalf("one n=1000 k=20 set: %d matrices, %d bytes; want 1 and 0.95–1.05 MB", st.Matrices, st.Bytes)
	}
	snap := c.Track(0, nil, fp, m)
	c.Track(fp, snap, 0, nil) // its last holder moves on: the set is retired
	if st := c.Stats(); st.Matrices != 0 || st.Bytes != 0 {
		t.Fatalf("after retiring: %d matrices, %d bytes", st.Matrices, st.Bytes)
	}
}
