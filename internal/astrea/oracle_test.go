package astrea

import (
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/hwmodel"
	"astrea/internal/prng"
)

// enumerator is the recursive branch-and-bound search the flat kernel
// replaced, kept verbatim as the reference the kernel must reproduce bit for
// bit. It walks the perfect matchings of nodes (plus virtual boundary),
// always extending the lowest-indexed unmatched slot.
type enumerator struct {
	gwt   *decodegraph.GWT
	nodes []int
	n     int
	used  []bool

	cur      [][2]int
	cost     int
	curObs   uint64
	best     [][2]int
	bestCost int
	bestObs  uint64
}

// pairCost returns the quantised weight and observable parity of matching
// slots a < b (slot index == len(nodes) means the virtual boundary bit).
func (e *enumerator) pairCost(a, b int) (int, uint64) {
	i := e.nodes[a]
	if b >= len(e.nodes) {
		return int(e.gwt.Q(i, i)), e.gwt.Obs(i, i)
	}
	j := e.nodes[b]
	return int(e.gwt.Q(i, j)), e.gwt.Obs(i, j)
}

func (e *enumerator) search(from int) {
	first := -1
	for i := from; i < e.n; i++ {
		if !e.used[i] {
			first = i
			break
		}
	}
	if first == -1 {
		if e.bestCost < 0 || e.cost < e.bestCost {
			e.bestCost = e.cost
			e.bestObs = e.curObs
			e.best = append(e.best[:0], e.cur...)
		}
		return
	}
	e.used[first] = true
	for j := first + 1; j < e.n; j++ {
		if e.used[j] {
			continue
		}
		w, o := e.pairCost(first, j)
		if e.bestCost >= 0 && e.cost+w >= e.bestCost {
			continue
		}
		e.used[j] = true
		e.cost += w
		e.curObs ^= o
		partner := decoder.Boundary
		if j < len(e.nodes) {
			partner = e.nodes[j]
		}
		e.cur = append(e.cur, [2]int{e.nodes[first], partner})

		e.search(first + 1)

		e.cur = e.cur[:len(e.cur)-1]
		e.curObs ^= o
		e.cost -= w
		e.used[j] = false
	}
	e.used[first] = false
}

// oracleDecode is the pre-kernel Decoder.Decode over a flagged list.
func oracleDecode(gwt *decodegraph.GWT, flagged []int) decoder.Result {
	hw := len(flagged)
	if hw == 0 {
		return decoder.Result{RealTime: true}
	}
	if hw > MaxHW {
		return decoder.Result{Skipped: true, RealTime: true}
	}
	cycles, _ := hwmodel.AstreaCycles(hw)
	e := enumerator{gwt: gwt, nodes: flagged, n: hw + hw&1, bestCost: -1}
	e.used = make([]bool, e.n)
	e.search(0)
	return decoder.Result{
		ObsPrediction: e.bestObs,
		Pairs:         e.best,
		Weight:        float64(e.bestCost),
		Cycles:        cycles,
		RealTime:      true,
	}
}

// requireSameResult fails unless got equals want in every field, Pairs
// compared in order.
func requireSameResult(t testing.TB, ctx string, flagged []int, got, want decoder.Result) {
	t.Helper()
	same := got.ObsPrediction == want.ObsPrediction && got.Weight == want.Weight &&
		got.Cycles == want.Cycles && got.Skipped == want.Skipped && got.RealTime == want.RealTime &&
		len(got.Pairs) == len(want.Pairs)
	for i := 0; same && i < len(want.Pairs); i++ {
		same = got.Pairs[i] == want.Pairs[i]
	}
	if !same {
		t.Fatalf("%s flagged=%v:\nkernel     %+v\nenumerator %+v", ctx, flagged, got, want)
	}
}

// The flat kernel must reproduce the recursive enumerator exactly — Pairs in
// order, Weight, ObsPrediction, Cycles — on sampled syndromes of every
// decodable Hamming weight, odd and even, at tie-heavy small distances and
// at d=7. BestMatching (Astrea-G's entry point) must agree with Decode.
func TestKernelMatchesEnumerator(t *testing.T) {
	shots := 20000
	if testing.Short() {
		shots = 2000
	}
	var byHW [MaxHW + 1]int
	for _, d := range []int{3, 5, 7} {
		for _, p := range []float64{1e-3, 3e-3, 8e-3} {
			m, gwt := build(t, d, p)
			dec := New(gwt)
			rng := prng.New(uint64(1000*d) + uint64(p*1e4))
			smp := dem.NewSampler(m)
			s := bitvec.New(gwt.N)
			for shot := 0; shot < shots; shot++ {
				smp.Sample(rng, s)
				flagged := s.Ones(nil)
				if len(flagged) == 0 || len(flagged) > MaxHW {
					continue
				}
				byHW[len(flagged)]++
				want := oracleDecode(gwt, flagged)
				got := dec.Decode(s)
				requireSameResult(t, "Decode", flagged, got, want)
				if ok, why := decoder.Validate(s, got); !ok {
					t.Fatalf("d=%d p=%g shot %d: invalid matching: %s", d, p, shot, why)
				}
				pairs, total, obs := dec.BestMatching(flagged)
				requireSameResult(t, "BestMatching", flagged,
					decoder.Result{ObsPrediction: obs, Pairs: pairs, Weight: float64(total), Cycles: want.Cycles, RealTime: true}, want)
			}
		}
	}
	for hw := 1; hw <= MaxHW; hw++ {
		if byHW[hw] < 100 {
			t.Fatalf("Hamming weight %d compared only %d times: %v", hw, byHW[hw], byHW)
		}
	}
}

// FuzzKernelVsEnumerator feeds arbitrary detector subsets of size 1..10 —
// not only the ones a noise model produces — at d=3 (few distinct 8-bit
// weights, so ties are everywhere) and d=7.
func FuzzKernelVsEnumerator(f *testing.F) {
	_, gwt3 := build(f, 3, 1e-3)
	_, gwt7 := build(f, 7, 1e-3)
	f.Add(false, []byte{0})
	f.Add(false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(false, []byte{15, 3, 9, 12, 1, 7, 4})
	f.Add(true, []byte{0, 40, 80, 120, 160, 191, 5, 6, 7})
	f.Add(true, []byte{10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Fuzz(func(t *testing.T, big bool, picks []byte) {
		gwt := gwt3
		if big {
			gwt = gwt7
		}
		s := bitvec.New(gwt.N)
		for _, b := range picks {
			if s.PopCount() == MaxHW {
				break
			}
			s.Set(int(b) % gwt.N)
		}
		flagged := s.Ones(nil)
		if len(flagged) == 0 {
			return
		}
		want := oracleDecode(gwt, flagged)
		dec := New(gwt)
		requireSameResult(t, "Decode", flagged, dec.Decode(s), want)
		requireSameResult(t, "DecodeObs", flagged, obsWithPairs(t, dec.DecodeObs(s), want.Pairs), want)
	})
}

// obsWithPairs checks that a DecodeObs result carries no matching and
// lends it want's, so requireSameResult compares every other field.
func obsWithPairs(t testing.TB, r decoder.Result, pairs [][2]int) decoder.Result {
	t.Helper()
	if r.Pairs != nil {
		t.Fatalf("DecodeObs returned pairs %v", r.Pairs)
	}
	r.Pairs = pairs
	return r
}

// DecodeObs is Decode's kernel without the caller-owned Pairs: on sampled
// syndromes of every Hamming weight 0..12 at d = 3, 5, 7 it must agree with
// Decode in every other field, alternating on one instance so neither entry
// point's scratch leaks into the other's answer.
func TestDecodeObsMatchesDecode(t *testing.T) {
	const shots = 4000
	var byHW [MaxHW + 3]int
	compared := 0
	for _, d := range []int{3, 5, 7} {
		for _, p := range []float64{1e-3, 4e-3, 8e-3} {
			m, gwt := build(t, d, p)
			dec := New(gwt)
			rng := prng.New(uint64(7000*d) + uint64(p*1e4))
			smp := dem.NewSampler(m)
			s := bitvec.New(gwt.N)
			for shot := 0; shot < shots; shot++ {
				smp.Sample(rng, s)
				flagged := s.Ones(nil)
				if hw := len(flagged); hw < len(byHW) {
					byHW[hw]++
				}
				want := dec.Decode(s)
				requireSameResult(t, "DecodeObs", flagged, obsWithPairs(t, dec.DecodeObs(s), want.Pairs), want)
				compared++
			}
		}
	}
	if compared < 10000 {
		t.Fatalf("compared only %d syndromes", compared)
	}
	for hw, n := range byHW {
		if n < 20 {
			t.Fatalf("Hamming weight %d compared only %d times: %v", hw, n, byHW)
		}
	}
}

// Result.Pairs is the caller's: a pooled instance is handed to the next
// window while the previous Result is still being read (internal/stream's
// poolDecode), so a later decode on the same instance must not touch it.
func TestPairsSurviveNextDecode(t *testing.T) {
	_, gwt := build(t, 5, 1e-3)
	dec := New(gwt)
	a, b := bitvec.New(gwt.N), bitvec.New(gwt.N)
	for _, i := range []int{0, 3, 7, 11, 20, 31, 40} {
		a.Set(i)
	}
	for _, i := range []int{1, 2, 9, 14, 22, 30, 41, 50, 60} {
		b.Set(i)
	}
	rA := dec.Decode(a)
	kept := append([][2]int(nil), rA.Pairs...)
	rB := dec.Decode(b)
	if len(rA.Pairs) != 4 || len(rB.Pairs) != 5 {
		t.Fatalf("pair counts %d, %d; want 4, 5", len(rA.Pairs), len(rB.Pairs))
	}
	for i := range kept {
		if rA.Pairs[i] != kept[i] {
			t.Fatalf("decode B rewrote A's pairs: %v, was %v", rA.Pairs, kept)
		}
	}
	if ok, why := decoder.Validate(a, rA); !ok {
		t.Fatalf("A's matching no longer valid after decode B: %s", why)
	}
}
