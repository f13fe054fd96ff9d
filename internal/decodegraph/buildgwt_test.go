package decodegraph

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"astrea/internal/circuit"
	"astrea/internal/dem"
	"astrea/internal/prng"
	"astrea/internal/surface"
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

// memoryGraph is the decoding graph of a distance-d, rounds-round memory-Z
// experiment at uniform error rate p.
func memoryGraph(t testing.TB, d, rounds int, p float64) *Graph {
	t.Helper()
	code, err := surface.New(d)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := code.MemoryZ(rounds, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dem.FromCircuit(cc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromModel(m, cc.DetMetas)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkFoldRadius holds a table to the full-Dijkstra oracle under the
// fold-radius contract: w, q and obs bit for bit everywhere; direct and
// directObs bit for bit wherever the oracle's direct chain lies within row
// i's radius, and elsewhere +Inf and 0 over an oracle chain longer than
// bnd(i)+bnd(j)+FoldMargin.
func checkFoldRadius(t testing.TB, label string, serial, got *GWT) {
	t.Helper()
	n := serial.N
	bndMax := 0.0
	for i := 0; i < n; i++ {
		bndMax = max(bndMax, serial.w[i*n+i])
	}
	for i := 0; i < n; i++ {
		bi := serial.w[i*n+i]
		radius := foldRadius(bi, bndMax)
		for j := 0; j < n; j++ {
			k := i*n + j
			if math.Float64bits(got.w[k]) != math.Float64bits(serial.w[k]) ||
				got.q[k] != serial.q[k] || got.obs[k] != serial.obs[k] {
				t.Fatalf("%s: folded entry (%d, %d) differs from the serial build", label, i, j)
			}
			if serial.direct[k] <= radius {
				if math.Float64bits(got.direct[k]) != math.Float64bits(serial.direct[k]) || got.directObs[k] != serial.directObs[k] {
					t.Fatalf("%s: direct entry (%d, %d) inside the radius differs from the serial build", label, i, j)
				}
				continue
			}
			if !math.IsInf(got.direct[k], 1) || got.directObs[k] != 0 {
				t.Fatalf("%s: direct entry (%d, %d) past the radius is %v/%d, want +Inf/0", label, i, j, got.direct[k], got.directObs[k])
			}
			if bj := serial.w[j*n+j]; !(serial.direct[k] > bi+bj+FoldMargin) {
				t.Fatalf("%s: truncated pair (%d, %d) has direct %v within FoldMargin of its fold %v", label, i, j, serial.direct[k], bi+bj)
			}
		}
	}
}

// TestBuildGWTMatchesSerial pins the parallel, radius-bounded table to the
// serial full-Dijkstra oracle (see checkFoldRadius) at d ∈ {3, 5, 7, 9},
// at whole-shot (d rounds) and stream-window (6d−1 rounds) heights, from
// p = 1e-4 to 1e-2, with one and with three row workers.
func TestBuildGWTMatchesSerial(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		for _, rounds := range []int{d, 6*d - 1} {
			for _, p := range []float64{1e-4, 1e-3, 3e-3, 1e-2} {
				g := memoryGraph(t, d, rounds, p)
				var serial *GWT
				withProcs(1, func() {
					var err error
					if serial, err = g.buildGWTSerial(); err != nil {
						t.Fatal(err)
					}
				})
				for _, procs := range []int{1, 3} {
					withProcs(procs, func() {
						got, err := g.BuildGWT()
						if err != nil {
							t.Fatal(err)
						}
						checkFoldRadius(t, fmt.Sprintf("d=%d rounds=%d p=%g procs=%d", d, rounds, p, procs), serial, got)
					})
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

// randomModel is a small random detector error model shaped like a
// decoding graph: detectors on a line, each joined to a random detector up
// to span behind it, extra local edges, boundary mechanisms at both ends
// and at a random share of the rest, random observable masks, and
// per-mechanism probabilities drawn log-uniformly from [1e-5, 0.3] (or, in
// tie mode, from three shared values) — the non-uniform models
// NewEnvFromCircuit builds. In gap mode some line edges are left out, so
// some detectors may not reach the boundary.
func randomModel(seed uint64, size, shape uint8) *dem.Model {
	rng := prng.New(seed)
	n := 2 + int(size)%47
	span := 1 + int(shape)%4
	ties, gaps := shape&16 != 0, shape&32 != 0
	m := &dem.Model{NumDetectors: n, NumObservables: 2}
	add := func(dets ...int) {
		p := math.Pow(10, -0.5-4.5*rng.Float64())
		if ties {
			p = []float64{1e-3, 3e-3, 1e-2}[rng.Intn(3)]
		}
		m.Errors = append(m.Errors, dem.Error{Detectors: dets, ObsMask: uint64(rng.Intn(4)), P: p})
	}
	add(0)
	add(n - 1)
	for i := 1; i < n; i++ {
		if !gaps || rng.Intn(8) != 0 {
			add(i-1-rng.Intn(min(span, i)), i)
		}
		if i < n-1 && rng.Intn(6) == 0 {
			add(i)
		}
	}
	for range rng.Intn(2 * n) {
		i := rng.Intn(n - 1)
		add(i, min(n-1, i+1+rng.Intn(span)))
	}
	return m
}

// FuzzBuildGWTVsSerial builds random small models through BuildGWT and the
// serial full-Dijkstra oracle: both must reject with the same message, or
// the table must meet the fold-radius contract (checkFoldRadius).
func FuzzBuildGWTVsSerial(f *testing.F) {
	for _, c := range []struct {
		seed        uint64
		size, shape uint8
	}{{1, 30, 0}, {2, 46, 3}, {3, 12, 17}, {4, 40, 19}, {5, 20, 33}, {6, 46, 50}} {
		f.Add(c.seed, c.size, c.shape)
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, shape uint8) {
		g, err := FromModel(randomModel(seed, size, shape), make([]circuit.DetMeta, 2+int(size)%47))
		if err != nil {
			t.Fatal(err)
		}
		serial, serr := g.buildGWTSerial()
		got, err := g.BuildGWT()
		if serr != nil || err != nil {
			if serr == nil || err == nil || serr.Error() != err.Error() {
				t.Fatalf("parallel build error %v, serial %v", err, serr)
			}
			return
		}
		checkFoldRadius(t, fmt.Sprintf("seed=%d size=%d shape=%d", seed, size, shape), serial, got)
	})
}
