package serve

import (
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

// A cache hit must hand the adopter the donor's exact artifacts, and those
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
	// A repeated request from a Prep that already holds the entry adopts
	// nothing: a miss, not an error.
	if hit, err := c.Rounded(fp, 4, adopter.Prep()); hit || err != nil {
		t.Fatalf("repeat hit=%v err=%v, want miss", hit, err)
	}
	dm, dPairs, _ := donor.Prep().Rounded(4)
	am, aPairs, _ := adopter.Prep().Rounded(4)
	if dm != am || !reflect.DeepEqual(dPairs, aPairs) {
		t.Fatal("adopted artifacts are not the donor's")
	}
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

func TestCacheCheapestRowsHit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := testMatrix(rng, 10)
	fp := m.Fingerprint()
	c := NewCache(4)
	donor := cacheTestProblem(t, m)
	if hit := c.CheapestRows(fp, donor.Prep()); hit {
		t.Fatal("first rows request reported a hit")
	}
	adopter := cacheTestProblem(t, m.Clone())
	if hit := c.CheapestRows(fp, adopter.Prep()); !hit {
		t.Fatal("second rows request missed")
	}
	dr, ar := donor.Prep().CheapestRows(), adopter.Prep().CheapestRows()
	if &dr[0][0] != &ar[0][0] {
		t.Fatal("adopted rows are not shared with the donor")
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
	c.Track(0, fp)    // tenant a arrives at fp
	c.Track(0, fp)    // tenant b shares it
	c.Track(fp, fp)   // same content: no-op
	c.Track(fp, fp+3) // a moves on; b still holds fp
	if st := c.Stats(); st.Superseded != 0 || st.Matrices != 1 {
		t.Fatalf("fingerprint retired while a tenant still held it: %+v", st)
	}
	c.Track(fp, fp+3) // b moves on: last holder gone
	if st := c.Stats(); st.Superseded != 1 || st.Matrices != 0 {
		t.Fatalf("last holder's move did not retire the fingerprint: %+v", st)
	}
	if len(c.holders) != 1 || c.holders[fp+3] != 2 {
		t.Fatalf("holder counts = %v, want only fp+3 held twice", c.holders)
	}
}

// 16 goroutines hammer concurrent lookups over a handful of fingerprints
// while an invalidator races Track retirements and capacity evictions
// against them. Run under -race; correctness assertion: every adopted artifact
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
	// Reference artifacts from cold computes.
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
			c.Track(0, ct.fp)
			c.Track(ct.fp, ct.fp+1)
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
					t.Errorf("goroutine %d iter %d: adopted artifact diverged from cold compute", g, iter)
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
