package serve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/wal"
)

// epochBody writes a POST /v1/epoch body by hand, so a -0 cost reaches the
// decoder as the token "-0".
func epochBody(tenant string, n int, rows map[int][]float64, order []int) rawBody {
	var b strings.Builder
	fmt.Fprintf(&b, `{"tenant":%q,"n":%d,"rows":[`, tenant, n)
	for k, i := range order {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"row":%d,"values":[`, i)
		for j, v := range rows[i] {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteString("]}")
	}
	b.WriteString("]}")
	return rawBody(b.String())
}

// TestNegativeZeroOneMeaning posts random row sequences whose costs and
// diagonals mix +0 and -0 (and other values written over them) through the
// HTTP decoder. Every ack must carry CostMatrix.Fingerprint of the matrix
// the client wrote, and a restarted daemon must replay its log to the last
// ack: a cost is its bit pattern from the decoder through validation, the
// fold, the WAL and replay.
func TestNegativeZeroOneMeaning(t *testing.T) {
	neg := math.Copysign(0, -1)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		dir := t.TempDir()
		d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
		ts := httptest.NewServer(d.Handler())
		client := core.NewCostMatrix(n)
		var last string
		for epoch := 1; epoch <= 12; epoch++ {
			rows := map[int][]float64{}
			var order []int
			for _, i := range rng.Perm(n)[:1+rng.Intn(n)] {
				vals := make([]float64, n)
				for j := range vals {
					switch {
					case j == i && rng.Intn(2) == 0:
						vals[j] = neg
					case j == i:
					case rng.Intn(3) == 0:
						vals[j] = neg
					case rng.Intn(2) == 0:
						vals[j] = float64(rng.Intn(3)) // 0, 1 or 2
					default:
						vals[j] = rng.Float64()
					}
				}
				rows[i] = vals
				order = append(order, i)
			}
			if epoch == 1 { // the first epoch posts every row
				order = order[:0]
				for i := 0; i < n; i++ {
					if rows[i] == nil {
						rows[i] = make([]float64, n)
						for j := range rows[i] {
							if j != i {
								rows[i][j] = 1 + rng.Float64()
							}
						}
					}
					order = append(order, i)
				}
			}
			for _, i := range order {
				for j, v := range rows[i] {
					client.Set(i, j, v)
				}
			}
			resp := postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochBody("zero", n, rows, order))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d epoch %d: status %d", seed, epoch, resp.StatusCode)
			}
			var er epochResponse
			decodeBody(t, resp, &er)
			want := fmt.Sprintf("%016x", uint64(client.Fingerprint()))
			if er.Fingerprint != want {
				t.Fatalf("seed %d epoch %d: ack %s, client's matrix %s", seed, epoch, er.Fingerprint, want)
			}
			last = er.Fingerprint
		}
		ts.Close()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		re := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
		if got := fmt.Sprintf("%016x", uint64(session(t, re, "zero", false).mean.fp)); got != last {
			t.Fatalf("seed %d: restart fingerprint %s, last ack %s", seed, got, last)
		}
		re.Close()
	}
}

// TestNegativeZeroParentLogReplays opens a log written before writing -0
// over +0 counted as a change. That daemon kept +0 where a client wrote -0
// over it, kept -0 where a client wrote +0 over -0, and logged each
// changed row as it stored it. Every logged row is a full row of the state
// it fingerprinted, so replaying it bit for bit reproduces each logged
// fingerprint, and the log opens as it did then.
func TestNegativeZeroParentLogReplays(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "negzero-log", "tenants", "6e65677a65726f")
	dst := filepath.Join(dir, "tenants", "6e65677a65726f")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(src, "00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "00000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	defer d.Close()
	// The acks that daemon gave: epochs 1 and 2 (-0 over 0, no change)
	// 7b7d4a2fb49c7f7d, 3 and 4 (+0 over a stored -0, no change)
	// bb7d4a2fb49c7f7d, and 5 06414a2fb49c7f7d.
	s := session(t, d, "negzero", false)
	if s.epoch != 5 || s.mean.fp != 0x06414a2fb49c7f7d {
		t.Fatalf("replayed to epoch %d fingerprint %016x, want 5 06414a2fb49c7f7d", s.epoch, uint64(s.mean.fp))
	}
	// The replayed matrix holds the bits that daemon stored.
	neg := math.Copysign(0, -1)
	want := core.NewCostMatrix(3)
	for i, row := range [][]float64{{0, 0, 1.5}, {1.5, 0, neg}, {neg, 3, 0}} {
		for j, v := range row {
			want.Set(i, j, v)
		}
	}
	if want.Fingerprint() != s.mean.fp {
		t.Fatalf("replayed fingerprint %016x, the stored matrix's %016x", uint64(s.mean.fp), uint64(want.Fingerprint()))
	}
	// New epochs append to it under the bitwise rule.
	_, fp, err := d.AppendEpoch("negzero", 3, []wal.RowDelta{{Row: 0, Values: []float64{0, neg, 1.5}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want.Set(0, 1, neg)
	if fp != want.Fingerprint() {
		t.Fatalf("ack %016x after -0 over 0, want %016x", uint64(fp), uint64(want.Fingerprint()))
	}
}
