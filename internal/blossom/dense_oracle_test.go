package blossom_test

import (
	"math"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/blossom"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/exactmatch"
	"astrea/internal/montecarlo"
	"astrea/internal/mwpm"
	"astrea/internal/prng"
)

// coldDense is the dense exact engine as it stood before the warm start —
// each pair lifted by the solver callback and again while unfolding the
// output — over the cold oracle solver.
type coldDense struct {
	gwt *decodegraph.GWT
	sv  blossom.ColdSolver

	liftBnd []int64
	out     [][2]int
	nodes   []int
	k       int

	maxWeight int64 // heaviest weight handed to the solver so far
}

func (e *coldDense) Name() string { return "dense" }

func (e *coldDense) liftedPair(nodes []int, a, b, k int) (int64, bool) {
	i, j := nodes[a], nodes[b]
	via := e.liftBnd[a] + e.liftBnd[b]
	if dw := e.gwt.DirectWeight(i, j); !math.IsInf(dw, 1) {
		if direct := exactmatch.Lift(exactmatch.Base(dw), exactmatch.PairTie(i, j, k)); direct < via {
			return direct, true
		}
	}
	return via, false
}

func (e *coldDense) liftedWeight(a, b int) int64 {
	if a > b {
		a, b = b, a
	}
	w := e.liftBnd[a]
	if b < e.k {
		w, _ = e.liftedPair(e.nodes, a, b, e.k)
	}
	e.maxWeight = max(e.maxWeight, w)
	return w
}

func (e *coldDense) Match(nodes []int) [][2]int {
	k := len(nodes)
	n := k
	if n%2 == 1 {
		n++
	}
	e.liftBnd = e.liftBnd[:0]
	for _, i := range nodes {
		e.liftBnd = append(e.liftBnd, exactmatch.LiftBoundary(e.gwt, i, k))
	}
	e.nodes, e.k = nodes, k
	mate, _, err := e.sv.MinWeightPerfect(n, e.liftedWeight)
	if err != nil {
		panic(err)
	}
	e.out = e.out[:0]
	for a := 0; a < k; a++ {
		b := mate[a]
		if b < a {
			continue
		}
		if b >= k {
			e.out = append(e.out, [2]int{nodes[a], decoder.Boundary})
			continue
		}
		if _, direct := e.liftedPair(nodes, a, b, k); direct {
			e.out = append(e.out, [2]int{nodes[a], nodes[b]})
		} else {
			e.out = append(e.out,
				[2]int{nodes[a], decoder.Boundary},
				[2]int{nodes[b], decoder.Boundary})
		}
	}
	return e.out
}

// TestDenseMatchesColdOracle decodes sampled syndromes of Hamming weight
// 2..40 over d ∈ {3,5,7,9} × p ∈ {1e-3,3e-3,6e-3} — 100 800 of them, 8 400
// per cell — through the dense MWPM decoder and through the cold oracle
// adapter, and requires bit-identical results: pair lists, weight bits and
// observable predictions. This is the gate behind the benchmark's own
// oracle, which is the dense decoder itself.
//
// The heaviest weight the sweep hands the solver is 2^44.4, in the d=9,
// p=1e-3 cell (the longest chains at the lowest p), 2^7.6 below
// blossom.MaxWeight: the overflow contract refuses nothing the decoders
// produce.
func TestDenseMatchesColdOracle(t *testing.T) {
	perCell := 8400
	if testing.Short() {
		perCell = 500
	}
	var heaviest int64
	total := 0
	for _, d := range []int{3, 5, 7, 9} {
		for _, p := range []float64{1e-3, 3e-3, 6e-3} {
			env, err := montecarlo.NewEnv(d, d, p)
			if err != nil {
				t.Fatal(err)
			}
			m, gwt := env.Model, env.GWT
			warm := mwpm.New(gwt)
			oracle := &coldDense{gwt: gwt}
			cold := mwpm.NewWithEngine(gwt, oracle)
			rng := prng.New(uint64(1000*d) + uint64(p*1e6))
			smp := dem.NewSampler(m)
			s := bitvec.New(gwt.N)
			for got, draws := 0, 0; got < perCell; draws++ {
				if draws > 1000*perCell {
					t.Fatalf("d=%d p=%g: only %d syndromes of HW 2..40 in %d draws", d, p, got, draws)
				}
				smp.Sample(rng, s)
				if hw := s.PopCount(); hw < 2 || hw > 40 {
					continue
				}
				got++
				a, b := warm.Decode(s), cold.Decode(s)
				if !sameResult(a, b) {
					t.Fatalf("d=%d p=%g HW %d: warm %+v, cold oracle %+v", d, p, s.PopCount(), a, b)
				}
			}
			heaviest = max(heaviest, oracle.maxWeight)
			total += perCell
		}
	}
	t.Logf("%d syndromes bit-identical; heaviest solver weight 2^%.1f (MaxWeight 2^%.1f)",
		total, math.Log2(float64(heaviest)), math.Log2(float64(blossom.MaxWeight)))
}

func sameResult(a, b decoder.Result) bool {
	if a.ObsPrediction != b.ObsPrediction ||
		math.Float64bits(a.Weight) != math.Float64bits(b.Weight) ||
		len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	return true
}
