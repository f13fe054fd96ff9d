// Package astrea implements the paper's primary contribution: a real-time
// MWPM decoder that brute-force searches every perfect matching of the
// flagged syndrome bits, feasible because near-term surface codes (d ≤ 7)
// almost never produce syndromes of Hamming weight above 10 (§4–§5).
//
// One flat kernel (hw6.go) does the search in the shape of Figures 7 and 8:
// the ≤ 45 pair weights of the flagged bits are gathered once from the
// Global Weight Table into a decoder-owned array, the HW6Decoder's fixed
// table of 15 matchings resolves six slots, and the pre-match loops extend
// it to eight slots (7 alternatives) and ten (9 × 7). Weights are the 8-bit
// quantised GWT entries the hardware stores in SRAM; pair weights already
// fold in the through-boundary alternative, so pairing-only enumeration is
// exact MWPM (property-tested against the blossom baseline). Odd-weight
// syndromes gain one virtual boundary bit (§5.2.2, footnote 2). Matchings
// are visited in first-slot-ascending order and only a strictly cheaper one
// replaces the incumbent, so the result is the lexicographically first
// minimum; the recursive enumerator the kernel replaced lives on as the
// test oracle that pins this bit for bit.
//
// Syndromes with Hamming weight above 10 are skipped — the core design
// trade-off of §5.7: at d ≤ 7 and p = 10⁻⁴ they occur less often than the
// logical error rate, so ignoring them does not measurably change accuracy.
//
// Timing follows the §5.4 cycle model exactly: HW+1 fetch cycles plus
// 1/11/103 decode cycles at 250 MHz, reproducing the 456 ns worst case.
package astrea

import (
	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/hwmodel"
)

// MaxHW is the largest Hamming weight Astrea decodes (§5.3).
const MaxHW = 10

// Decoder is the Astrea exhaustive-search decoder. Decode is NOT safe for
// concurrent use on one instance (per-decode scratch is reused); create one
// Decoder per goroutine — the GWT they read may be shared freely.
type Decoder struct {
	gwt *decodegraph.GWT

	// Kernel scratch (hw6.go). Slot a is nodes[a]; slot len(nodes) is the
	// virtual boundary bit of an odd node count.
	w    [256]int32          // gathered pair weights, w[a<<4|b] for slots a < b
	near [16]int32           // per slot, its cheapest pairing (8 and 10 slots only)
	best int32               // incumbent total; the search accepts only below it
	win  [MaxHW / 2][2]uint8 // incumbent matching as slot pairs, first slot ascending
	tail [MaxHW / 2][2]int   // backing array of BestMatching's returned pairs
}

// cycles is the §5.4 cycle model per decodable Hamming weight.
var cycles = func() (c [MaxHW + 1]int) {
	for hw := range c {
		c[hw], _ = hwmodel.AstreaCycles(hw)
	}
	return c
}()

// New returns an Astrea decoder over the given Global Weight Table.
func New(gwt *decodegraph.GWT) *Decoder {
	return &Decoder{gwt: gwt}
}

// Name implements decoder.Decoder.
func (d *Decoder) Name() string { return "Astrea" }

// Decode implements decoder.Decoder. Syndromes of Hamming weight above
// MaxHW are returned with Skipped set and the identity correction.
func (d *Decoder) Decode(syndrome bitvec.Vec) decoder.Result {
	if syndrome.PopCount() > MaxHW {
		return decoder.Result{Skipped: true, RealTime: true}
	}
	var flagged [MaxHW]int
	return d.DecodeFlagged(syndrome.Ones(flagged[:0]))
}

// DecodeFlagged is Decode for a caller that has already extracted the
// flagged detectors (ascending, as bitvec.Vec.Ones returns them); Astrea-G
// hands its low-Hamming-weight syndromes over this way.
func (d *Decoder) DecodeFlagged(flagged []int) decoder.Result {
	hw := len(flagged)
	if hw == 0 {
		return decoder.Result{RealTime: true}
	}
	if hw > MaxHW {
		return decoder.Result{Skipped: true, RealTime: true}
	}
	n := d.solve(flagged)
	// The one allocation of a decode: Pairs belongs to the caller and must
	// outlive this instance's next decode (pooled instances are reused while
	// a previous Result is still being read).
	pairs := make([][2]int, n/2)
	return decoder.Result{
		ObsPrediction: d.emit(flagged, pairs),
		Pairs:         pairs,
		Weight:        float64(d.best),
		Cycles:        cycles[hw],
		RealTime:      true,
	}
}

// DecodeObs is Decode for a caller that reads only the observable
// prediction, which is all a decode service answer carries: the matching
// stays in BestMatching's scratch, so Pairs is nil and nothing is
// allocated. Every other Result field is Decode's.
func (d *Decoder) DecodeObs(syndrome bitvec.Vec) decoder.Result {
	if syndrome.PopCount() > MaxHW {
		return decoder.Result{Skipped: true, RealTime: true}
	}
	var flagged [MaxHW]int
	nodes := syndrome.Ones(flagged[:0])
	if len(nodes) == 0 {
		return decoder.Result{RealTime: true}
	}
	_, q, obs := d.BestMatching(nodes)
	return decoder.Result{ObsPrediction: obs, Weight: float64(q), Cycles: cycles[len(nodes)], RealTime: true}
}

// BestMatching exhaustively searches all perfect matchings of at most MaxHW
// flagged detectors under quantised GWT weights and returns the optimal
// pairing, its total quantised weight, and its observable parity. An odd
// node count is completed with one virtual boundary bit. The returned pairs
// are a view of decoder scratch, valid until the instance's next call. This
// is the logic block Astrea-G uses as its HW6Decoder finishing stage.
func (d *Decoder) BestMatching(nodes []int) (pairs [][2]int, totalQ int, obs uint64) {
	if len(nodes) == 0 {
		return nil, 0, 0
	}
	if len(nodes) > MaxHW {
		panic("astrea: BestMatching called with more than MaxHW nodes")
	}
	n := d.solve(nodes)
	pairs = d.tail[:n/2]
	return pairs, int(d.best), d.emit(nodes, pairs)
}

// CountMatchings returns the number of perfect matchings a Hamming-weight-w
// syndrome admits: (w'−1)!! with w' = w rounded up to even — Equation (2)
// of the paper (3 at w=4, 15 at w=6, 105 at w=8, 945 at w=10).
func CountMatchings(w int) int {
	if w <= 0 {
		return 1
	}
	if w%2 == 1 {
		w++
	}
	n := 1
	for k := w - 1; k > 1; k -= 2 {
		n *= k
	}
	return n
}
