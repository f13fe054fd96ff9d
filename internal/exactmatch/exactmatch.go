// Package exactmatch is the shared contract between the exact
// minimum-weight perfect-matching engines (the dense Blossom formulation in
// internal/mwpm and the sparse local-region engine in internal/sparsemwpm)
// and the decoder adapter that wraps either of them.
//
// Both engines minimise the same "lifted" integer objective and return the
// same semantic representation of a matching, which is what makes them
// interchangeable bit-for-bit:
//
//   - A matching is a list of pairs: (i, j) with i < j for a direct chain
//     between detectors i and j, or (i, decoder.Boundary) for a boundary
//     chain. Folded through-boundary pairs never appear — an engine whose
//     internal formulation matches i and j through the boundary reports the
//     two boundary chains explicitly.
//
//   - Chain weights are lifted to base<<TieBits | tie, where base is the
//     classic fixed-point rounding int64(w*WeightScale + 0.5) and tie is a
//     deterministic per-chain hash bounded so that the tie contributions of
//     a whole matching can never sum across one base unit. A lifted optimum
//     is therefore always a base optimum, and among base-equal matchings
//     the hash makes the lifted optimum unique with overwhelming
//     probability — so two exact solvers of different construction pick the
//     same matching, and the reported observable prediction agrees even on
//     degenerate syndromes. Crucially the lifted weight of matching i and j
//     through the boundary is defined as LiftBoundary(i)+LiftBoundary(j) —
//     a sum, not a re-rounding — so the folded and unfolded views of a
//     through-boundary match cost exactly the same.
//
//   - Score converts the canonical pair list into the reported float weight
//     and observable mask by looking every chain up in the GWT, in sorted
//     pair order, so equal pair lists give bit-identical Results regardless
//     of which engine produced them.
package exactmatch

import (
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
)

// WeightScale converts float decade weights to the integer fixed point the
// exact solvers run on. 2^16 is far finer than the hardware's 8-bit
// quantisation, so the software baselines are effectively exact.
const WeightScale = 1 << 16

// TieBits is the width of the tie-break field below the base weight in a
// lifted integer weight.
const TieBits = 24

// Engine is an exact minimum-weight perfect matcher over flagged detectors
// with an unlimited-degree boundary.
type Engine interface {
	// Name identifies the engine ("dense", "sparse") in stats and reports.
	Name() string
	// Match returns a minimum-lifted-weight matching of the flagged
	// detectors (strictly ascending indices, len ≥ 2) in the semantic pair
	// representation described in the package comment. The returned slice
	// may be reused by the next Match call.
	Match(flagged []int) [][2]int
}

// Base converts a float chain weight to fixed point, rounding half up —
// the rounding every exact formulation in this repository has always used.
func Base(w float64) int64 { return int64(w*WeightScale + 0.5) }

// TieBound is the exclusive upper bound of a single chain's tie value when
// k detectors are flagged: a matching holds at most k chains (boundary
// chains counted singly), so the matching's tie sum stays below 1<<TieBits
// and can never perturb the base optimum.
func TieBound(k int) int64 {
	b := (int64(1) << TieBits) / int64(k+1)
	if b < 1 {
		b = 1
	}
	return b
}

// Lift combines a base weight and a tie-break into one lifted weight.
func Lift(base, tie int64) int64 { return base<<TieBits | tie }

// mix2 is a SplitMix64-style finalizer over two words, used to derive
// deterministic tie-breaks from detector indices.
func mix2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ (b + 0x6a09e667f3bcc909)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PairTie is the tie-break of the direct chain between detectors i < j at
// flagged count k.
func PairTie(i, j, k int) int64 { return PairTieBounded(i, j, TieBound(k)) }

// PairTieBounded is PairTie with TieBound(k) computed once by the caller,
// for engines that tie-break every pair of one syndrome.
func PairTieBounded(i, j int, bound int64) int64 {
	return int64(mix2(uint64(i)+1, uint64(j)+1) % uint64(bound))
}

// BoundaryTie is the tie-break of detector i's boundary chain at flagged
// count k.
func BoundaryTie(i, k int) int64 {
	return int64(mix2(uint64(i)+1, ^uint64(0)) % uint64(TieBound(k)))
}

// LiftBoundary is the lifted weight of detector i's boundary chain.
func LiftBoundary(gwt *decodegraph.GWT, i, k int) int64 {
	return Lift(Base(gwt.BoundaryWeight(i)), BoundaryTie(i, k))
}

// SortPairs orders a semantic matching canonically: ascending by first
// index (each detector appears in exactly one pair, so firsts are unique),
// boundary pairs interleaved with direct pairs. Engines emit pairs in
// whatever order their formulation produces; the adapter sorts before
// scoring so float accumulation order — and therefore the reported weight
// — is a function of the matching alone.
// Insertion sort: a matching holds at most HW/2 pairs (a handful at the
// distances served), and sort.Slice's closure-through-interface would cost
// two heap allocations on every decode.
func SortPairs(pairs [][2]int) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairLess(pairs[j], pairs[j-1]); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

func pairLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// Score accumulates the reported float weight and observable mask of a
// canonical (sorted) semantic matching from the GWT: direct chains read
// DirectWeight/DirectObs, boundary chains the diagonal. Both engines'
// adapters score through this one code path, so equal matchings yield
// bit-identical results.
//
// DirectWeight is +Inf past the table's fold radius, but Score never reads
// such a pair: an engine matches i and j directly only when the lifted
// direct chain beats LiftBoundary(i)+LiftBoundary(j), so Base(direct) ≤
// Base(bnd(i))+Base(bnd(j)) and direct ≤ bnd(i)+bnd(j)+1.5/WeightScale,
// which lies inside the radius because decodegraph.FoldMargin spans at
// least two fixed-point units (TestFoldMarginCoversRounding).
func Score(gwt *decodegraph.GWT, pairs [][2]int) (weight float64, obs uint64) {
	for _, p := range pairs {
		if p[1] == decoder.Boundary {
			weight += gwt.BoundaryWeight(p[0])
			obs ^= gwt.Obs(p[0], p[0])
			continue
		}
		weight += gwt.DirectWeight(p[0], p[1])
		obs ^= gwt.DirectObs(p[0], p[1])
	}
	return weight, obs
}
