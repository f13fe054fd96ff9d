package decodegraph

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"astrea/internal/circuit"
	"astrea/internal/dem"
	"astrea/internal/prng"
	"astrea/internal/surface"
)

func buildGWT(t testing.TB, d int, p float64) (*surface.Code, *dem.Model, *Graph, *GWT) {
	t.Helper()
	code, err := surface.New(d)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := code.MemoryZ(d, p)
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
	gwt, err := g.BuildGWT()
	if err != nil {
		t.Fatal(err)
	}
	return code, m, g, gwt
}

func TestQuantizeRoundTrip(t *testing.T) {
	for _, w := range []float64{0, 0.5, 1, 3.25, 6.0, 10.9375, 15.9375} {
		q := Quantize(w)
		if math.Abs(Dequantize(q)-w) > 0.5/QScale+1e-9 {
			t.Fatalf("quantize(%v) = %d, dequantized %v", w, q, Dequantize(q))
		}
	}
	if Quantize(-1) != 0 {
		t.Fatal("negative weights must clamp to 0")
	}
	if Quantize(1e9) != QMax {
		t.Fatal("huge weights must saturate")
	}
}

// TestQuantizeMatchesRound holds Quantize to math.Round of w × QScale,
// clamped, at every half-unit boundary and the floats either side of it,
// and at random weights.
func TestQuantizeMatchesRound(t *testing.T) {
	ref := func(w float64) uint8 {
		q := math.Round(w * QScale)
		return uint8(max(0, min(q, QMax)))
	}
	check := func(w float64) {
		if got, want := Quantize(w), ref(w); got != want {
			t.Fatalf("Quantize(%v) = %d, math.Round gives %d", w, got, want)
		}
	}
	for k := -2; k <= 2*QMax+4; k++ {
		w := (float64(k)/2 + 0.25) / QScale
		check(w)
		x := float64(k) / 2 // the half-unit boundary, in quantised units
		for _, v := range []float64{x, math.Nextafter(x, -1), math.Nextafter(x, 1000)} {
			check(v / QScale)
		}
	}
	for _, w := range []float64{0, math.Inf(1), 1e300, -1e300, 0.49999999999999994 / QScale} {
		check(w)
	}
	rng := prng.New(59)
	for range 100000 {
		check(rng.Float64() * 20)
	}
}

func TestQuantizeMonotonic(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return Quantize(a) <= Quantize(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGWTBasicProperties(t *testing.T) {
	_, _, _, gwt := buildGWT(t, 5, 1e-3)
	n := gwt.N
	if n != 6*12 {
		t.Fatalf("GWT size %d, want 72 (d=5)", n)
	}
	for i := 0; i < n; i++ {
		if gwt.BoundaryWeight(i) <= 0 {
			t.Fatalf("boundary weight of %d is %v", i, gwt.BoundaryWeight(i))
		}
		for j := 0; j < n; j++ {
			w := gwt.Weight(i, j)
			if i != j && w <= 0 {
				t.Fatalf("weight(%d,%d) = %v", i, j, w)
			}
			// Symmetry.
			if math.Abs(w-gwt.Weight(j, i)) > 1e-9 {
				t.Fatalf("asymmetric weights at (%d,%d)", i, j)
			}
			if gwt.Obs(i, j) != gwt.Obs(j, i) {
				t.Fatalf("asymmetric obs at (%d,%d)", i, j)
			}
			if gwt.Q(i, j) != Quantize(w) {
				t.Fatalf("quantised entry mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Pair weights must never exceed the two-boundary alternative, and must obey
// a relaxed triangle inequality through any third node.
func TestGWTThroughBoundaryAndTriangle(t *testing.T) {
	_, _, _, gwt := buildGWT(t, 3, 1e-3)
	n := gwt.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if gwt.Weight(i, j) > gwt.BoundaryWeight(i)+gwt.BoundaryWeight(j)+1e-9 {
				t.Fatalf("pair (%d,%d) weight %v exceeds boundary sum %v",
					i, j, gwt.Weight(i, j), gwt.BoundaryWeight(i)+gwt.BoundaryWeight(j))
			}
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if gwt.Weight(i, j) > gwt.Weight(i, k)+gwt.Weight(k, j)+1e-9 {
					t.Fatalf("triangle violation (%d,%d) via %d", i, j, k)
				}
			}
		}
	}
}

// Every single mechanism's own footprint must be decodable at exactly its
// own weight or better: for a pair mechanism (a, b), Weight(a, b) <=
// -log10(p); for a boundary mechanism, BoundaryWeight(a) <= -log10(p). And
// when equality holds for a unique lightest mechanism the observable parity
// must match the mechanism's.
func TestGWTDominatesSingleMechanisms(t *testing.T) {
	_, m, _, gwt := buildGWT(t, 5, 1e-3)
	for _, e := range m.Errors {
		w := -math.Log10(e.P)
		switch len(e.Detectors) {
		case 1:
			if gwt.BoundaryWeight(e.Detectors[0]) > w+1e-9 {
				t.Fatalf("boundary weight of %d worse than its own mechanism", e.Detectors[0])
			}
		case 2:
			if gwt.Weight(e.Detectors[0], e.Detectors[1]) > w+1e-9 {
				t.Fatalf("pair weight of %v worse than its own mechanism", e.Detectors)
			}
		}
	}
}

// In a memory-Z experiment the boundary chains on the two sides differ in
// observable parity: crossing the logical-Z column flips the observable.
// So both parities must appear among boundary chains.
func TestBoundaryObsParitiesBothPresent(t *testing.T) {
	_, _, _, gwt := buildGWT(t, 5, 1e-3)
	seen := map[uint64]bool{}
	for i := 0; i < gwt.N; i++ {
		seen[gwt.Obs(i, i)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("boundary chain parities %v, want both 0 and 1", seen)
	}
}

// A full horizontal crossing: the two boundary chains of one detector near
// the left and one near the right must together flip the observable exactly
// once; equivalently the pair chain left<->right has obs parity equal to
// bndObs(l) ^ bndObs(r) ^ 1 only if the direct path is cheaper... we assert
// the physical statement instead: for any i, j, obs(i,j) ^ obs(i,i) ^
// obs(j,j) is the parity of a closed loop through the boundary, which must
// equal 1 exactly when the loop crosses the lattice an odd number of
// times — i.e. when the direct chain and the boundary chains use opposite
// sides. Weak invariant: XOR is 0 or 1, and at least one pair in round 0 has
// XOR 1 (a loop around... through both sides).
func TestLoopParity(t *testing.T) {
	_, _, _, gwt := buildGWT(t, 5, 1e-3)
	sawCrossing := false
	for i := 0; i < gwt.N; i++ {
		for j := i + 1; j < gwt.N; j++ {
			x := gwt.Obs(i, j) ^ gwt.Obs(i, i) ^ gwt.Obs(j, j)
			if x != 0 && x != 1 {
				t.Fatalf("non-binary loop parity %d", x)
			}
			if x == 1 {
				sawCrossing = true
			}
		}
	}
	if !sawCrossing {
		t.Fatal("no left-right crossing pair found; boundary sides look wrong")
	}
}

// GWT sizes reproduce Table 6's dominant entries: 192² = 36 KiB at d=7 and
// 400² ≈ 156 KiB at d=9.
func TestGWTSizeMatchesTable6(t *testing.T) {
	_, _, _, g7 := buildGWT(t, 7, 1e-3)
	if g7.SizeBytes() != 36864 {
		t.Fatalf("d=7 GWT = %d bytes, want 36864", g7.SizeBytes())
	}
	_, _, _, g9 := buildGWT(t, 9, 1e-3)
	if g9.SizeBytes() != 160000 {
		t.Fatalf("d=9 GWT = %d bytes, want 160000", g9.SizeBytes())
	}
}

// Time-like chains: the same stabilizer in consecutive rounds must be
// connected much more cheaply than distant stabilizers; and the weight of
// the time edge should be close to -log10(p_meas-merged), i.e. a few
// decades at p=1e-3.
func TestTimeEdgesCheap(t *testing.T) {
	code, _, _, gwt := buildGWT(t, 5, 1e-3)
	nz := code.NumZ
	// Detector index = round*nz + stab.
	for s := 0; s < nz; s++ {
		w := gwt.Weight(1*nz+s, 2*nz+s)
		if w > 4 {
			t.Fatalf("time edge for stab %d costs %v decades at p=1e-3", s, w)
		}
	}
}

// Weight histogram regenerates the Fig 10(a) shape: a multi-modal
// distribution with mass both below and above the W_th=7 cutoff at p=1e-3.
func TestWeightHistogramShape(t *testing.T) {
	_, _, _, gwt := buildGWT(t, 7, 1e-3)
	h := gwt.WeightHistogram(20)
	total := 0
	low, high := 0, 0
	for b, c := range h {
		total += c
		if b < 7 {
			low += c
		} else {
			high += c
		}
	}
	if total != gwt.N*(gwt.N+1)/2 {
		t.Fatalf("histogram total %d, want %d", total, gwt.N*(gwt.N+1)/2)
	}
	if low == 0 || high == 0 {
		t.Fatalf("expected mass on both sides of W_th: low=%d high=%d", low, high)
	}
	if float64(high) < 0.2*float64(total) {
		t.Fatalf("filtering should discard a substantial fraction; high=%d of %d", high, total)
	}
}

func TestFromModelRejectsMismatchedMetas(t *testing.T) {
	code, _ := surface.New(3)
	cc, _ := code.MemoryZ(3, 1e-3)
	m, err := dem.FromCircuit(cc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromModel(m, cc.DetMetas[:1]); err == nil {
		t.Fatal("expected meta length mismatch error")
	}
}

func TestDisconnectedGraphRejected(t *testing.T) {
	m := &dem.Model{
		NumDetectors: 3,
		Errors: []dem.Error{
			{Detectors: []int{0}, P: 0.1},
			{Detectors: []int{1, 2}, P: 0.1}, // 1,2 cannot reach boundary
		},
	}
	g, err := FromModel(m, make([]circuit.DetMeta, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.BuildGWT(); err == nil {
		t.Fatal("expected error for boundary-unreachable detectors")
	}
}

// BenchmarkBuildGWT times the table build at whole-shot height (d rounds)
// for d ∈ {3, 5, 7, 9}, and at stream-window height (6d−1 rounds, the
// default window plus its padding) for d ∈ {5, 7}, where most pairs lie
// past the fold radius.
func BenchmarkBuildGWT(b *testing.B) {
	for _, c := range []struct{ d, rounds int }{{3, 3}, {5, 5}, {7, 7}, {9, 9}, {5, 29}, {7, 41}} {
		name := fmt.Sprintf("d=%d", c.d)
		if c.rounds != c.d {
			name = fmt.Sprintf("d=%d,rounds=%d", c.d, c.rounds)
		}
		b.Run(name, func(b *testing.B) {
			g := memoryGraph(b, c.d, c.rounds, 1e-3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.BuildGWT(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
