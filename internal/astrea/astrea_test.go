package astrea

import (
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/blossom"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/hwmodel"
	"astrea/internal/prng"
	"astrea/internal/surface"
)

func build(t testing.TB, d int, p float64) (*dem.Model, *decodegraph.GWT) {
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
	g, err := decodegraph.FromModel(m, cc.DetMetas)
	if err != nil {
		t.Fatal(err)
	}
	gwt, err := g.BuildGWT()
	if err != nil {
		t.Fatal(err)
	}
	return m, gwt
}

// Equation (2): matching counts 1, 3, 15, 105, 945 for weights 2, 4, 6, 8,
// 10, with odd weights matching the next even count.
func TestCountMatchingsEquation2(t *testing.T) {
	want := map[int]int{0: 1, 1: 1, 2: 1, 3: 3, 4: 3, 5: 15, 6: 15, 7: 105, 8: 105, 9: 945, 10: 945}
	for w, n := range want {
		if got := CountMatchings(w); got != n {
			t.Fatalf("CountMatchings(%d) = %d, want %d", w, got, n)
		}
	}
}

// The enumerator must visit exactly (w-1)!! matchings when pruning is
// impossible (all-equal weights make every branch tie, but >= pruning still
// cuts; so count via an independent naive enumeration).
func TestEnumerationCountNaive(t *testing.T) {
	var count func(used []bool) int
	count = func(used []bool) int {
		first := -1
		for i, u := range used {
			if !u {
				first = i
				break
			}
		}
		if first == -1 {
			return 1
		}
		used[first] = true
		total := 0
		for j := first + 1; j < len(used); j++ {
			if !used[j] {
				used[j] = true
				total += count(used)
				used[j] = false
			}
		}
		used[first] = false
		return total
	}
	for _, w := range []int{2, 4, 6, 8, 10} {
		if got := count(make([]bool, w)); got != CountMatchings(w) {
			t.Fatalf("naive enumeration of w=%d visits %d, want %d", w, got, CountMatchings(w))
		}
	}
}

func TestTrivialSyndromes(t *testing.T) {
	_, gwt := build(t, 3, 1e-3)
	d := New(gwt)
	r := d.Decode(bitvec.New(gwt.N))
	if r.ObsPrediction != 0 || r.Cycles != 0 || r.Skipped {
		t.Fatalf("HW=0 result %+v", r)
	}
	s := bitvec.New(gwt.N)
	s.Set(5)
	r = d.Decode(s)
	if len(r.Pairs) != 1 || r.Pairs[0] != [2]int{5, decoder.Boundary} {
		t.Fatalf("HW=1 pairs %v", r.Pairs)
	}
	if r.Cycles != 0 {
		t.Fatalf("HW=1 must be trivial (0 cycles), got %d", r.Cycles)
	}
}

func TestSkipsAboveMaxHW(t *testing.T) {
	_, gwt := build(t, 5, 1e-3)
	d := New(gwt)
	s := bitvec.New(gwt.N)
	for i := 0; i < MaxHW+2; i++ {
		s.Set(i)
	}
	r := d.Decode(s)
	if !r.Skipped || r.ObsPrediction != 0 || len(r.Pairs) != 0 {
		t.Fatalf("HW=%d result %+v, want skipped identity", MaxHW+2, r)
	}
}

// §5.4 cycle model: worst case 114 cycles = 456 ns at HW 10; 8 cycles =
// 32 ns at HW 5-6; 20 cycles = 80 ns at HW 7-8.
func TestCycleModelMatchesPaper(t *testing.T) {
	cases := map[int]int{
		0: 0, 1: 0, 2: 0,
		3: 5, 4: 6, 5: 7, 6: 8,
		7: 19, 8: 20,
		9: 113, 10: 114,
	}
	for hw, want := range cases {
		got, ok := hwmodel.AstreaCycles(hw)
		if !ok || got != want {
			t.Fatalf("AstreaCycles(%d) = %d,%v; want %d", hw, got, ok, want)
		}
	}
	if ns := hwmodel.LatencyNs(114); ns != 456 {
		t.Fatalf("worst-case latency %v ns, want 456", ns)
	}
	if ns := hwmodel.LatencyNs(8); ns != 32 {
		t.Fatalf("HW6 latency %v ns, want 32", ns)
	}
	if ns := hwmodel.LatencyNs(20); ns != 80 {
		t.Fatalf("HW8 latency %v ns, want 80", ns)
	}
	if _, ok := hwmodel.AstreaCycles(11); ok {
		t.Fatal("HW 11 must be undecodable")
	}
}

// Astrea must be an exact minimiser: its total quantised weight must equal
// a blossom solution over the same quantised weights, on real sampled
// syndromes across the full decodable range.
func TestExactnessAgainstBlossom(t *testing.T) {
	m, gwt := build(t, 5, 5e-3) // high p to reach large Hamming weights
	dec := New(gwt)
	rng := prng.New(616)
	smp := dem.NewSampler(m)
	s := bitvec.New(gwt.N)
	var sv blossom.Solver

	byHW := make(map[int]int)
	for shot := 0; shot < 6000; shot++ {
		smp.Sample(rng, s)
		ones := s.Ones(nil)
		hw := len(ones)
		if hw < 2 || hw > MaxHW {
			continue
		}
		byHW[hw]++
		r := dec.Decode(s)
		if ok, why := decoder.Validate(s, r); !ok {
			t.Fatalf("shot %d: %s", shot, why)
		}
		n := hw
		if n%2 == 1 {
			n++
		}
		w := func(a, b int) int64 {
			if b >= hw {
				a, b = b, a
			}
			if a >= hw {
				return int64(gwt.Q(ones[b], ones[b]))
			}
			return int64(gwt.Q(ones[a], ones[b]))
		}
		_, want, err := sv.MinWeightPerfect(n, w)
		if err != nil {
			t.Fatal(err)
		}
		if int64(r.Weight) != want {
			t.Fatalf("shot %d hw=%d: astrea %v vs blossom %d", shot, hw, r.Weight, want)
		}
	}
	covered := 0
	for hw := 2; hw <= MaxHW; hw++ {
		if byHW[hw] > 0 {
			covered++
		}
	}
	if covered < 6 {
		t.Fatalf("insufficient Hamming-weight coverage: %v", byHW)
	}
}

// BestMatching on a synthetic GWT-like table: two nodes close to the
// boundary and far from each other must both match the boundary through the
// effective pair weight.
func TestThroughBoundaryPairing(t *testing.T) {
	_, gwt := build(t, 5, 1e-3)
	// Find two round-0 detectors on opposite sides with cheap boundary
	// chains: pick i, j minimising bnd(i)+bnd(j) subject to direct > sum.
	n := gwt.N
	found := false
	for i := 0; i < n && !found; i++ {
		for j := i + 1; j < n; j++ {
			if gwt.BoundaryWeight(i)+gwt.BoundaryWeight(j) < gwt.DirectWeight(i, j) {
				pairs, total, obs := New(gwt).BestMatching([]int{i, j})
				if len(pairs) != 1 {
					t.Fatalf("pairs = %v", pairs)
				}
				wantQ := int(gwt.Q(i, j))
				if total != wantQ {
					t.Fatalf("total %d, want effective weight %d", total, wantQ)
				}
				if obs != gwt.Obs(i, j) {
					t.Fatal("obs parity must follow the effective chain")
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no through-boundary pair found at this distance")
	}
}

func TestDeterminism(t *testing.T) {
	m, gwt := build(t, 3, 5e-3)
	d1, d2 := New(gwt), New(gwt)
	rng := prng.New(33)
	smp := dem.NewSampler(m)
	s := bitvec.New(gwt.N)
	for shot := 0; shot < 800; shot++ {
		smp.Sample(rng, s)
		a, b := d1.Decode(s), d2.Decode(s)
		if a.ObsPrediction != b.ObsPrediction || a.Weight != b.Weight || a.Cycles != b.Cycles {
			t.Fatalf("nondeterministic at shot %d", shot)
		}
	}
}

func BenchmarkDecodeHW6(b *testing.B)  { benchHW(b, 6) }
func BenchmarkDecodeHW8(b *testing.B)  { benchHW(b, 8) }
func BenchmarkDecodeHW10(b *testing.B) { benchHW(b, 10) }

func benchHW(b *testing.B, hw int) {
	m, gwt := build(b, 7, 5e-3)
	dec := New(gwt)
	rng := prng.New(1)
	smp := dem.NewSampler(m)
	s := bitvec.New(gwt.N)
	// Hunt for a syndrome of the requested weight.
	for {
		smp.Sample(rng, s)
		if s.PopCount() == hw {
			break
		}
	}
	_ = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(s)
	}
}
