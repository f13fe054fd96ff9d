package decodegraph

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"astrea/internal/circuit"
	"astrea/internal/dem"
)

// buildGWTSerial is the one-goroutine table build BuildGWT replaced, kept
// as its oracle: one Dijkstra per row, in row order, on shared scratch.
func (g *Graph) buildGWTSerial() (*GWT, error) {
	n := g.N
	t := &GWT{
		N:         n,
		Metas:     g.Metas,
		w:         make([]float64, n*n),
		q:         make([]uint8, n*n),
		obs:       make([]uint64, n*n),
		direct:    make([]float64, n*n),
		directObs: make([]uint64, n*n),
	}
	dist := make([]float64, n+1)
	obs := make([]uint64, n+1)
	h := newMinHeap(n + 1)

	g.shortestFrom(g.Boundary(), dist, obs, h)
	bndW := make([]float64, n)
	bndObs := make([]uint64, n)
	for i := 0; i < n; i++ {
		if math.IsInf(dist[i], 1) {
			return nil, fmt.Errorf("decodegraph: detector %d cannot reach the boundary", i)
		}
		bndW[i] = dist[i]
		bndObs[i] = obs[i]
		t.w[i*n+i] = dist[i]
		t.obs[i*n+i] = obs[i]
	}

	for i := 0; i < n; i++ {
		g.shortestFrom(i, dist, obs, h)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			w, o := dist[j], obs[j]
			t.direct[i*n+j] = w
			t.directObs[i*n+j] = o
			if via := bndW[i] + bndW[j]; via < w {
				w, o = via, bndObs[i]^bndObs[j]
			}
			if math.IsInf(w, 1) {
				return nil, fmt.Errorf("decodegraph: detectors %d and %d are disconnected", i, j)
			}
			t.w[i*n+j] = w
			t.obs[i*n+j] = o
		}
	}
	for k, w := range t.w {
		t.q[k] = Quantize(w)
	}
	return t, nil
}

// withProcs runs f at the given GOMAXPROCS, so the row split is exercised
// with more workers than the host has cores and with an odd stride.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestBuildGWTMatchesSerial pins the parallel table to the serial oracle:
// every array, every entry, bit for bit, at d ∈ {3, 5, 7, 9}.
func TestBuildGWTMatchesSerial(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		_, _, g, want := buildGWT(t, d, 1e-3)
		var serial *GWT
		withProcs(1, func() {
			var err error
			if serial, err = g.buildGWTSerial(); err != nil {
				t.Fatal(err)
			}
		})
		for _, procs := range []int{1, 3} {
			var got *GWT
			withProcs(procs, func() {
				var err error
				if got, err = g.BuildGWT(); err != nil {
					t.Fatal(err)
				}
			})
			for _, tbl := range []*GWT{want, got} {
				for k := range serial.w {
					if math.Float64bits(tbl.w[k]) != math.Float64bits(serial.w[k]) ||
						math.Float64bits(tbl.direct[k]) != math.Float64bits(serial.direct[k]) ||
						tbl.q[k] != serial.q[k] || tbl.obs[k] != serial.obs[k] || tbl.directObs[k] != serial.directObs[k] {
						t.Fatalf("d=%d procs=%d: entry (%d, %d) differs from the serial build", d, procs, k/serial.N, k%serial.N)
					}
				}
			}
		}
	}
}

// TestBuildGWTDisconnectedMatchesSerial: on a graph some detectors cannot
// reach, the parallel build fails exactly as the serial one, naming the
// lowest unreachable detector.
func TestBuildGWTDisconnectedMatchesSerial(t *testing.T) {
	m := &dem.Model{
		NumDetectors: 6,
		Errors: []dem.Error{
			{Detectors: []int{0}, P: 0.1},
			{Detectors: []int{0, 3}, P: 0.1},
			{Detectors: []int{1, 2}, P: 0.1}, // 1, 2 and 4, 5 cannot reach the boundary
			{Detectors: []int{4, 5}, P: 0.1},
		},
	}
	g, err := FromModel(m, make([]circuit.DetMeta, 6))
	if err != nil {
		t.Fatal(err)
	}
	_, want := g.buildGWTSerial()
	withProcs(3, func() { _, err = g.BuildGWT() })
	if want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("parallel build error %v, serial %v", err, want)
	}
}

// TestGWTFingerprintsPinned pins the fingerprints an .astc artifact carries
// at d=5/7/9, p=1e-3, to their values from the serial table build.
func TestGWTFingerprintsPinned(t *testing.T) {
	for _, c := range []struct {
		d    int
		want string
	}{{5, "8ba54f876bfcbdc3"}, {7, "e530bc812575e6d4"}, {9, "7f69976b6b70b97f"}} {
		if fp, _, _ := buildFP(t, c.d, 1e-3); fp.String() != c.want {
			t.Errorf("d=%d: fingerprint %s, want %s", c.d, fp, c.want)
		}
	}
}
