// Package mwpm is the software minimum-weight perfect-matching decoder —
// the paper's BlossomV baseline (§3.3) and the accuracy gold standard every
// other decoder is measured against.
//
// The package is a thin formulation adapter over an exactmatch.Engine: the
// engine turns the flagged detector set into the canonical semantic
// matching (direct pairs plus explicit boundary chains), and the adapter
// sorts it and scores it through the Global Weight Table. The built-in
// dense engine forms the complete graph over flagged detectors with lifted
// through-boundary-folded weights, adds one explicit boundary vertex when
// the flagged count is odd, and solves it with the O(n³) blossom algorithm;
// that restricted formulation is exactly equivalent to matching with an
// unlimited-degree boundary (see internal/decodegraph), which is
// property-tested against the boundary-duplication formulation in this
// package's tests. The sparse engine (internal/sparsemwpm) solves the same
// lifted objective over local regions of the decoding graph instead; both
// are exact, so NewWithEngine swaps them without changing a single output
// bit — the differential fuzzer and the cross-engine equality tests in
// internal/sparsemwpm enforce exactly that.
package mwpm

import (
	"math"

	"astrea/internal/bitvec"
	"astrea/internal/blossom"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/exactmatch"
)

// WeightScale converts float decade weights to the integer fixed point used
// inside the exact solvers. 2^16 is far finer than the hardware's 8-bit
// quantisation, so the software baseline is effectively exact.
const WeightScale = exactmatch.WeightScale

// Decoder is the software MWPM decoder. Decode is NOT safe for concurrent
// use on one instance (per-decode scratch is reused); create one Decoder
// per goroutine — the GWT and engine-backing graph they read may be shared
// freely.
type Decoder struct {
	gwt    *decodegraph.GWT
	engine exactmatch.Engine

	ones []int
}

// New returns an MWPM decoder over the given weight table, backed by the
// dense complete-graph blossom engine.
func New(gwt *decodegraph.GWT) *Decoder {
	e := &denseEngine{gwt: gwt}
	e.weightFn = e.liftedWeight
	return NewWithEngine(gwt, e)
}

// NewWithEngine returns an MWPM decoder whose matchings come from the given
// exact engine. The engine must solve the lifted objective described in
// internal/exactmatch; the adapter only sorts and scores its output.
func NewWithEngine(gwt *decodegraph.GWT, e exactmatch.Engine) *Decoder {
	return &Decoder{gwt: gwt, engine: e}
}

// Name implements decoder.Decoder. The dense-engine decoder keeps its
// historical name "MWPM"; other engines are suffixed so reports and
// stratified-LER tables attribute results to the engine that produced them.
func (d *Decoder) Name() string {
	if d.engine.Name() == "dense" {
		return "MWPM"
	}
	return "MWPM-" + d.engine.Name()
}

// EngineName implements decoder.EngineNamer.
func (d *Decoder) EngineName() string { return d.engine.Name() }

// Decode implements decoder.Decoder.
func (d *Decoder) Decode(syndrome bitvec.Vec) decoder.Result {
	d.ones = syndrome.Ones(d.ones[:0])
	k := len(d.ones)
	if k == 0 {
		return decoder.Result{RealTime: true}
	}
	if k == 1 {
		i := d.ones[0]
		return decoder.Result{
			ObsPrediction: d.gwt.Obs(i, i),
			Pairs:         [][2]int{{i, decoder.Boundary}},
			Weight:        d.gwt.BoundaryWeight(i),
			RealTime:      true,
		}
	}

	pairs := d.engine.Match(d.ones)
	exactmatch.SortPairs(pairs)
	w, obs := exactmatch.Score(d.gwt, pairs)
	return decoder.Result{
		ObsPrediction: obs,
		Pairs:         append([][2]int(nil), pairs...),
		Weight:        w,
		RealTime:      true,
	}
}

// denseEngine is the classic formulation: the complete graph over flagged
// detectors with pair weights folded through the boundary alternative, one
// explicit boundary vertex when the count is odd, solved by the dense
// blossom algorithm. Weights are lifted (see internal/exactmatch) so its
// optima coincide with the sparse engine's even on degenerate syndromes,
// and via-folded pairs are unfolded into explicit boundary chains on
// output.
type denseEngine struct {
	gwt *decodegraph.GWT
	sv  blossom.Solver

	// The current Match call's lifted weights: liftBnd (and the float
	// boundary weight bnd) per flagged position, and a k×k pair table,
	// row-major over positions a < b, holding the lifted weight of
	// pairing them and whether the direct chain won over the
	// through-boundary alternative. Both the solver's weight callback and
	// the output unfolding read the table, so each pair is lifted once per
	// call.
	liftBnd []int64
	bnd     []float64
	lifted  []int64
	direct  []bool
	k       int
	out     [][2]int

	// weightFn is liftedWeight bound once as a method value, so the
	// per-shot path never allocates a closure.
	weightFn func(a, b int) int64
}

// Name implements exactmatch.Engine.
func (e *denseEngine) Name() string { return "dense" }

// fill computes the pair table for nodes. Ties go to the boundary,
// matching the sparse engine's edge-retention rule.
func (e *denseEngine) fill(nodes []int) {
	k := len(nodes)
	tb := exactmatch.TieBound(k)
	e.liftBnd, e.bnd = e.liftBnd[:0], e.bnd[:0]
	for _, i := range nodes {
		e.liftBnd = append(e.liftBnd, exactmatch.LiftBoundary(e.gwt, i, k))
		e.bnd = append(e.bnd, e.gwt.BoundaryWeight(i))
	}
	if cap(e.lifted) < k*k {
		e.lifted = make([]int64, k*k)
		e.direct = make([]bool, k*k)
	}
	e.lifted, e.direct, e.k = e.lifted[:k*k], e.direct[:k*k], k
	for a, i := range nodes {
		for b := a + 1; b < k; b++ {
			j := nodes[b]
			w, direct := e.liftBnd[a]+e.liftBnd[b], false
			// The direct chain (GWT.DirectWeight): the entry itself where
			// the fold chose it, else at most a near-list chain.
			dw := e.gwt.Weight(i, j)
			if !(dw < e.bnd[a]+e.bnd[b]) {
				dw = e.gwt.NearWeight(i, j)
			}
			if !math.IsInf(dw, 1) {
				if lw := exactmatch.Lift(exactmatch.Base(dw), exactmatch.PairTieBounded(i, j, tb)); lw < w {
					w, direct = lw, true
				}
			}
			e.lifted[a*k+b], e.direct[a*k+b] = w, direct
		}
	}
}

// liftedWeight is the solver's weight callback over the current pair
// table; see weightFn.
func (e *denseEngine) liftedWeight(a, b int) int64 {
	if a > b {
		a, b = b, a
	}
	if b < e.k {
		return e.lifted[a*e.k+b]
	}
	return e.liftBnd[a]
}

// Match implements exactmatch.Engine.
func (e *denseEngine) Match(nodes []int) [][2]int {
	k := len(nodes)
	n := k
	if n%2 == 1 {
		n++ // explicit boundary vertex at index k
	}
	e.fill(nodes)
	mate, _, err := e.sv.MinWeightPerfect(n, e.weightFn)
	if err != nil {
		// The complete graph always admits a perfect matching; an error here
		// is a programming bug, not a data condition.
		panic(err)
	}

	e.out = e.out[:0]
	for a := 0; a < k; a++ {
		b := mate[a]
		if b < a {
			continue // already emitted
		}
		if b >= k { // matched to the explicit boundary vertex
			e.out = append(e.out, [2]int{nodes[a], decoder.Boundary})
			continue
		}
		if e.direct[a*k+b] {
			e.out = append(e.out, [2]int{nodes[a], nodes[b]})
		} else {
			// The optimum routed this pair through the boundary: report the
			// two boundary chains it actually consists of.
			e.out = append(e.out,
				[2]int{nodes[a], decoder.Boundary},
				[2]int{nodes[b], decoder.Boundary})
		}
	}
	return e.out
}
