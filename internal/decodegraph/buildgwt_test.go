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

// serialGWT is the table as the oracle builds it: five dense N² arrays,
// the direct chain of every pair kept beside its fold.
type serialGWT struct {
	N         int
	w         []float64
	q         []uint8
	obs       []uint64
	direct    []float64
	directObs []uint64
}

// buildGWTSerial is the one-goroutine table build BuildGWT replaced, kept
// as its oracle: one complete Dijkstra per row, in row order, on shared
// scratch.
func (g *Graph) buildGWTSerial() (*serialGWT, error) {
	n := g.N
	t := &serialGWT{
		N:         n,
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

// checkFoldRadius holds a table to the full-Dijkstra oracle: w, q and Obs
// bit for bit everywhere; DirectWeight and DirectObs bit for bit wherever
// the oracle's direct chain is at most bnd(i)+bnd(j)+FoldMargin, and +Inf
// and 0 everywhere else.
func checkFoldRadius(t testing.TB, label string, serial *serialGWT, got *GWT) {
	t.Helper()
	n := serial.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k := i*n + j
			if math.Float64bits(got.Weight(i, j)) != math.Float64bits(serial.w[k]) ||
				got.Q(i, j) != serial.q[k] || got.Obs(i, j) != serial.obs[k] {
				t.Fatalf("%s: folded entry (%d, %d) differs from the serial build", label, i, j)
			}
			if j == i {
				continue
			}
			dw, do := got.DirectWeight(i, j), got.DirectObs(i, j)
			if serial.direct[k] <= serial.w[i*n+i]+serial.w[j*n+j]+FoldMargin {
				if math.Float64bits(dw) != math.Float64bits(serial.direct[k]) || do != serial.directObs[k] {
					t.Fatalf("%s: direct entry (%d, %d) is %v/%d, serial build %v/%d",
						label, i, j, dw, do, serial.direct[k], serial.directObs[k])
				}
				continue
			}
			if !math.IsInf(dw, 1) || do != 0 {
				t.Fatalf("%s: direct entry (%d, %d) past the fold margin is %v/%d, want +Inf/0", label, i, j, dw, do)
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
				var serial *serialGWT
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

// TestNearListHoldsTies builds a model whose direct chains tie their fold
// exactly (0–2: two edges of the boundary edges' weight) or lie just above
// it (3–5): the fold shows neither, so DirectWeight must find both on the
// near list, parities and all.
func TestNearListHoldsTies(t *testing.T) {
	m := &dem.Model{
		NumDetectors:   6,
		NumObservables: 1,
		Errors: []dem.Error{
			{Detectors: []int{0}, P: 0.1},
			{Detectors: []int{0, 1}, ObsMask: 1, P: 0.1},
			{Detectors: []int{1, 2}, P: 0.1},
			{Detectors: []int{2}, P: 0.1},
			{Detectors: []int{3}, P: 0.1},
			{Detectors: []int{3, 4}, ObsMask: 1, P: 0.0999999},
			{Detectors: []int{4, 5}, P: 0.0999999},
			{Detectors: []int{5}, P: 0.1},
		},
	}
	g, err := FromModel(m, make([]circuit.DetMeta, 6))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := g.buildGWTSerial()
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.BuildGWT()
	if err != nil {
		t.Fatal(err)
	}
	checkFoldRadius(t, "tie model", serial, got)
	for _, p := range [][2]int{{0, 2}, {2, 0}, {3, 5}, {5, 3}} {
		i, j := p[0], p[1]
		via := got.BoundaryWeight(i) + got.BoundaryWeight(j)
		if dw := got.DirectWeight(i, j); !(via <= dw && dw <= via+FoldMargin) || got.DirectObs(i, j) != 1 {
			t.Fatalf("pair (%d, %d): direct %v/%d, want within FoldMargin above %v with parity 1",
				i, j, dw, got.DirectObs(i, j), via)
		}
	}
	if len(got.near) != 4 {
		t.Fatalf("near list holds %d chains, want 4", len(got.near))
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
