package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// edgeValues are the samples a link must bucket exactly as the oracle does:
// the zero bucket's inputs and edge, the smallest indexed values, and the
// top of the float64 range.
var edgeValues = []float64{
	0, math.Copysign(0, -1), -1, -1e300, math.NaN(), math.Inf(-1),
	MinIndexable, math.Nextafter(MinIndexable, 1), 2 * MinIndexable,
	1e300, math.MaxFloat64, math.Inf(1),
}

var oracleQuantiles = []float64{0, 0.5, 0.95, 0.99, 1}

// checkAgainstOracle fails unless every link of s reports the oracle's
// count and the oracle's quantile bits.
func checkAgainstOracle(t *testing.T, s *Set, oracles []*Sketch) {
	t.Helper()
	for k, o := range oracles {
		if s.Count(k) != int(o.total) {
			t.Fatalf("link %d: count %d, oracle %d", k, s.Count(k), o.total)
		}
		for _, q := range oracleQuantiles {
			a, b := s.Quantile(k, q), o.Quantile(q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("link %d (%d samples): Quantile(%g) = %v, oracle %v", k, o.total, q, a, b)
			}
		}
	}
}

// TestSetMatchesOracle feeds random interleaved per-link streams to a Set
// and to one dense oracle sketch per link: every quantile must match bit
// for bit, and a Set fed the same samples in another order must hold the
// same words. The streams mix RTT-like bodies, narrow ones that force
// dense counts, wide ones that stay sparse, and the edge values.
func TestSetMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	const links = 70 // three slabs, the last one partial
	type sample struct {
		k int
		v float64
	}
	var xs []sample
	for k := 0; k < links; k++ {
		n := r.Intn(12)
		switch k % 5 {
		case 1:
			n = 200 + r.Intn(3000)
		case 2:
			n = 30 + r.Intn(60)
		}
		base := math.Pow(10, -3+5*r.Float64())
		spread := []float64{0.02, 0.3, 3}[k%3]
		// Long streams take only the zero-bucket edges, which do not widen
		// a bucket run, so that they go dense.
		edges := edgeValues
		if k%5 == 1 {
			edges = edgeValues[:6]
		}
		for i := 0; i < n; i++ {
			v := base * math.Exp(spread*r.NormFloat64())
			if r.Intn(15) == 0 {
				v = edges[r.Intn(len(edges))]
			}
			xs = append(xs, sample{k, v})
		}
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })

	for _, alpha := range []float64{0.01, 0.002} {
		s := NewSet(alpha, links)
		oracles := make([]*Sketch, links)
		for k := range oracles {
			oracles[k] = New(alpha)
		}
		dense := 0
		for _, x := range xs {
			s.Add(x.k, x.v)
			oracles[x.k].Add(x.v)
		}
		checkAgainstOracle(t, s, oracles)
		for k := 0; k < links; k++ {
			if w := s.words(k); len(w) > 0 && w[0] == denseMark {
				dense++
			}
		}
		if dense == 0 || dense == links {
			t.Fatalf("alpha %g: %d of %d links dense, want both layouts", alpha, dense, links)
		}
		reversed := NewSet(alpha, links)
		for i := len(xs) - 1; i >= 0; i-- {
			reversed.Add(xs[i].k, xs[i].v)
		}
		for k := 0; k < links; k++ {
			if !sameLink(reversed, k, s, k) {
				t.Fatalf("alpha %g link %d: reversed arrival order changed the state", alpha, k)
			}
		}
	}
}

// TestSetBytesPerLink bounds a Set's footprint at the streaming CLI's
// shape, 330 instances, with a little more per link than that measurement
// ends with (10 samples over about 9 buckets, against 8.5 over 5), and
// checks that Bytes is a function of the Adds.
func TestSetBytesPerLink(t *testing.T) {
	const n = 330
	const maxBytesPerLink = 52
	fill := func() *Set {
		r := rand.New(rand.NewSource(1))
		s := NewSet(DefaultAlpha, n*n)
		for round := 0; round < 10; round++ {
			for k := 0; k < n*n; k++ {
				if k/n != k%n {
					s.Add(k, 0.4*math.Exp(0.15*r.NormFloat64()))
				}
			}
		}
		return s
	}
	s := fill()
	links := n * (n - 1)
	perLink := float64(s.Bytes()) / float64(links)
	t.Logf("%d links: %d bytes, %.1f per link", links, s.Bytes(), perLink)
	if perLink > maxBytesPerLink {
		t.Fatalf("%.1f bytes per link, want at most %d", perLink, maxBytesPerLink)
	}
	if again := fill(); again.Bytes() != s.Bytes() {
		t.Fatalf("Bytes differs between identical runs: %d vs %d", again.Bytes(), s.Bytes())
	}
}

// FuzzSketchSet decodes bytes into samples for three links and checks the
// Set against one oracle sketch per link, then against a Set fed the same
// samples in reverse. Each sample is a link byte, a kind byte, and then
// either 8 bytes of raw float64 bits, one byte picking an edge value, or
// 2 bytes of a log-scale value in a narrow band, so links go dense.
func FuzzSketchSet(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 2, 0x10, 0x00, 2, 3, 0x10, 0x01})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 1, 11, 1, 2, 0x80, 0x00})
	narrow := []byte{}
	for i := 0; i < 40; i++ {
		narrow = append(narrow, byte(i%3), 2, byte(i*7), 0x40)
	}
	f.Add(append(narrow, 0, 1, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0xe0, 0x7f))
	f.Fuzz(func(t *testing.T, data []byte) {
		const links = 3
		type sample struct {
			k int
			v float64
		}
		var xs []sample
	decode:
		for len(data) >= 2 {
			k, kind := int(data[0])%links, data[1]%3
			data = data[2:]
			var v float64
			switch kind {
			case 0:
				if len(data) < 8 {
					break decode
				}
				v = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			case 1:
				if len(data) < 1 {
					break decode
				}
				v = edgeValues[int(data[0])%len(edgeValues)]
				data = data[1:]
			default:
				if len(data) < 2 {
					break decode
				}
				v = math.Exp(float64(binary.LittleEndian.Uint16(data))/65535*0.5 - 0.25)
				data = data[2:]
			}
			xs = append(xs, sample{k, v})
		}
		s, reversed := NewSet(DefaultAlpha, links), NewSet(DefaultAlpha, links)
		oracles := []*Sketch{New(DefaultAlpha), New(DefaultAlpha), New(DefaultAlpha)}
		for i, x := range xs {
			s.Add(x.k, x.v)
			oracles[x.k].Add(x.v)
			y := xs[len(xs)-1-i]
			reversed.Add(y.k, y.v)
		}
		checkAgainstOracle(t, s, oracles)
		for k := 0; k < links; k++ {
			if !sameLink(reversed, k, s, k) {
				t.Fatalf("link %d: reversed arrival order changed the state", k)
			}
		}
	})
}
