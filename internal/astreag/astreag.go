// Package astreag implements Astrea-G (§6–§7): the greedy extension of
// Astrea that decodes high-Hamming-weight syndromes (d = 9 and beyond, or
// p = 10⁻³) in real time.
//
// Low-Hamming-weight syndromes (≤ 10) take the Astrea exhaustive path.
// Higher weights run the matching pipeline of Figure 11:
//
//   - the Local Weight Table (LWT) holds, per flagged bit, only the
//     candidate partners whose GWT weight is at most the Weight Threshold
//     W_th = −log10(0.01·P_L); everything less likely is filtered (§6.1).
//     A bit's boundary chain is always retained so no bit can strand.
//   - F priority queues hold pre-matchings scored by s/b (cumulative weight
//     over matched bits); each cycle the pipeline Fetches the best
//     pre-matching from each queue, Sorts the focus bit's surviving
//     candidates by weight, and Commits the F cheapest children (§7.1).
//   - when six or fewer bits remain unmatched, the HW6Decoder block finishes
//     the matching exhaustively and the result updates the MWPM register.
//   - full queues evict their worst entry, and the search ends when the
//     queues drain or the cycle budget (1 µs minus syndrome transmission
//     time, at 250 MHz) expires; the register then holds the best — almost
//     always the true — MWPM.
package astreag

import (
	"fmt"

	"astrea/internal/astrea"
	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/hwmodel"
)

// MaxNodes bounds the flagged-bit count the pipeline supports (pre-matching
// membership is a 64-bit mask). Syndromes beyond it are skipped; under the
// paper's noise regimes they are unobservably rare.
const MaxNodes = 64

// Decoder is the Astrea-G decoder. Decode is NOT safe for concurrent use on
// one instance (the pipeline queues and LWT are per-decode scratch); create
// one Decoder per goroutine — the GWT they read may be shared freely.
type Decoder struct {
	gwt  *decodegraph.GWT
	cfg  hwmodel.AstreaGConfig
	lhw  *astrea.Decoder
	wthQ int

	ones    []int
	cand    [][]candidate // per slot, ascending by weight
	contrib []float64     // per slot: admissible completion-cost share
	queues  [][]*prematch
	tail    [][2]int // the pairs the HW6Decoder finish added to the MWPM register's chain
}

// candidate is one surviving LWT entry: partner slot (or boundary) plus the
// quantised weight and chain observable parity.
type candidate struct {
	slot int // partner slot index; boundarySlot for the boundary
	w    int
	obs  uint64
}

const boundarySlot = -1

// prematch is a partial matching: a persistent chain of chosen pairs plus
// the membership mask, cumulative cost and matched-bit count.
type prematch struct {
	parent *prematch
	a, b   int // slots; b == boundarySlot for a boundary match
	obs    uint64

	mask  uint64
	cost  int
	nbits int
	// remLB is an admissible lower bound on the cost of matching the
	// remaining bits (sum of per-bit cheapest completions); priority is the
	// queue ordering key cost + remLB. The paper describes an s/b
	// (weight-over-progress) score; this reproduction sharpens it to the
	// A*-style bound — computable in hardware from one precomputed minimum
	// per LWT row — because the plain s/b ordering measurably misses the
	// MWPM on rare heavy syndromes that the paper's accuracy results say
	// the real design recovers (see DESIGN.md, substitutions).
	remLB    float64
	priority float64
	// cur is the index of the focus bit's next unconsidered LWT candidate.
	// Each pop commits the next F candidates and, if any remain, re-queues
	// the pre-matching with cur advanced, which makes the search complete:
	// when the queues drain without evictions the MWPM register provably
	// holds the MWPM, the guarantee §7.1 states.
	cur int
}

// New returns an Astrea-G decoder with the given configuration. The weight
// threshold is quantised to the GWT grid.
func New(gwt *decodegraph.GWT, cfg hwmodel.AstreaGConfig) (*Decoder, error) {
	if cfg.FetchWidth < 1 || cfg.QueueEntries < 1 {
		return nil, fmt.Errorf("astreag: fetch width %d / queue entries %d must be positive",
			cfg.FetchWidth, cfg.QueueEntries)
	}
	if cfg.BudgetCycles < 1 {
		return nil, fmt.Errorf("astreag: budget of %d cycles", cfg.BudgetCycles)
	}
	d := &Decoder{
		gwt:    gwt,
		cfg:    cfg,
		lhw:    astrea.New(gwt),
		wthQ:   int(decodegraph.Quantize(cfg.WeightThreshold)),
		queues: make([][]*prematch, cfg.FetchWidth),
	}
	return d, nil
}

// Name implements decoder.Decoder.
func (d *Decoder) Name() string { return "Astrea-G" }

// Config returns the decoder's configuration.
func (d *Decoder) Config() hwmodel.AstreaGConfig { return d.cfg }

// Decode implements decoder.Decoder.
func (d *Decoder) Decode(syndrome bitvec.Vec) decoder.Result {
	d.ones = syndrome.Ones(d.ones[:0])
	hw := len(d.ones)
	if hw <= astrea.MaxHW {
		return d.lhw.DecodeFlagged(d.ones)
	}
	if hw > MaxNodes {
		return decoder.Result{Skipped: true}
	}
	return d.decodeHHW()
}

// DecodeObs is Decode for a caller that reads only the observable
// prediction, which is all a decode service answer carries. Syndromes of
// Hamming weight ≤ astrea.MaxHW take Astrea's allocation-free DecodeObs;
// heavier ones run the full pipeline, whose Result still carries Pairs.
func (d *Decoder) DecodeObs(syndrome bitvec.Vec) decoder.Result {
	if syndrome.PopCount() <= astrea.MaxHW {
		return d.lhw.DecodeObs(syndrome)
	}
	return d.Decode(syndrome)
}

// buildLWT fills d.cand for the current flagged set, applying the W_th
// filter; Figure 10(b)'s pair-count reduction is exactly len(cand[i]).
func (d *Decoder) buildLWT() {
	k := len(d.ones)
	if cap(d.cand) < k {
		d.cand = make([][]candidate, k)
	}
	d.cand = d.cand[:k]
	for a := 0; a < k; a++ {
		c := d.cand[a][:0]
		i := d.ones[a]
		for b := 0; b < k; b++ {
			if b == a {
				continue
			}
			j := d.ones[b]
			if w := int(d.gwt.Q(i, j)); w <= d.wthQ {
				c = append(c, candidate{slot: b, w: w, obs: d.gwt.Obs(i, j)})
			}
		}
		// The boundary chain always survives filtering (§7.1 requires every
		// bit to remain matchable).
		c = append(c, candidate{slot: boundarySlot, w: int(d.gwt.Q(i, i)), obs: d.gwt.Obs(i, i)})
		sortByWeight(c)
		d.cand[a] = c
	}
	// Per-bit admissible completion share: a bit is resolved either by its
	// cheapest pair (half the pair weight per endpoint) or by its boundary
	// chain, whichever bounds lower.
	if cap(d.contrib) < k {
		d.contrib = make([]float64, k)
	}
	d.contrib = d.contrib[:k]
	for a := 0; a < k; a++ {
		best := float64(d.gwt.Q(d.ones[a], d.ones[a]))
		for _, c := range d.cand[a] {
			v := float64(c.w)
			if c.slot != boundarySlot {
				v /= 2
			}
			if v < best {
				best = v
			}
		}
		d.contrib[a] = best
	}
}

// sortByWeight orders an LWT row ascending by weight, equal weights keeping
// their slot order. The rows are short (at most one entry per flagged bit),
// so an insertion sort beats a closure-driven one and allocates nothing.
func sortByWeight(c []candidate) {
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i
		for ; j > 0 && c[j-1].w > x.w; j-- {
			c[j] = c[j-1]
		}
		c[j] = x
	}
}

// push inserts p into queue q keeping ascending priority order (after every
// entry of equal priority), evicting the worst entry on overflow.
func (d *Decoder) push(q int, p *prematch) {
	queue := d.queues[q]
	pos := len(queue)
	for pos > 0 && queue[pos-1].priority > p.priority {
		pos--
	}
	queue = append(queue, nil)
	copy(queue[pos+1:], queue[pos:])
	queue[pos] = p
	if len(queue) > d.cfg.QueueEntries {
		queue = queue[:d.cfg.QueueEntries]
	}
	d.queues[q] = queue
}

func (d *Decoder) decodeHHW() decoder.Result {
	k := len(d.ones)
	d.buildLWT()
	for i := range d.queues {
		d.queues[i] = d.queues[i][:0]
	}
	fullMask := uint64(1)<<uint(k) - 1

	// Seed with the empty pre-matching.
	totalLB := 0.0
	for _, c := range d.contrib {
		totalLB += c
	}
	d.push(0, &prematch{a: -2, b: -2, remLB: totalLB, priority: totalLB})

	bestCost := -1
	var bestObs uint64
	var bestLeaf *prematch
	d.tail = d.tail[:0]

	fetchCycles := hwmodel.AstreaFetchCycles(k)
	budget := d.cfg.BudgetCycles - fetchCycles
	cycles := 0

	remaining := make([]int, 0, 8)
	for cycles < budget {
		anyWork := false
		for qi := 0; qi < d.cfg.FetchWidth; qi++ {
			if len(d.queues[qi]) == 0 {
				continue
			}
			anyWork = true
			pm := d.queues[qi][0]
			d.queues[qi] = d.queues[qi][1:]
			if bestCost >= 0 && pm.cost+int(pm.remLB) >= bestCost {
				continue // bounded: cannot improve the register
			}
			// Focus: the lowest unmatched slot (canonical order; every
			// matching is reachable exactly once).
			focus := 0
			for focus < k && pm.mask&(1<<uint(focus)) != 0 {
				focus++
			}
			committed := 0
			ci := pm.cur
			for ; ci < len(d.cand[focus]); ci++ {
				c := d.cand[focus][ci]
				if committed == d.cfg.FetchWidth {
					break
				}
				if c.slot != boundarySlot && pm.mask&(1<<uint(c.slot)) != 0 {
					continue // partner already matched
				}
				child := &prematch{
					parent: pm, a: focus, b: c.slot, obs: c.obs,
					mask: pm.mask | 1<<uint(focus), cost: pm.cost + c.w, nbits: pm.nbits + 1,
					remLB: pm.remLB - d.contrib[focus],
				}
				if c.slot != boundarySlot {
					child.mask |= 1 << uint(c.slot)
					child.nbits++
					child.remLB -= d.contrib[c.slot]
				}
				if child.remLB < 0 {
					child.remLB = 0
				}
				child.priority = float64(child.cost) + child.remLB
				if bestCost >= 0 && child.cost+int(child.remLB) >= bestCost {
					committed++
					continue
				}
				unmatched := k - child.nbits
				if child.mask == fullMask {
					if bestCost < 0 || child.cost < bestCost {
						bestCost, bestLeaf, d.tail = child.cost, child, d.tail[:0]
						bestObs = chainObs(child)
					}
				} else if unmatched <= 6 {
					// HW6Decoder exhaustive finish.
					remaining = remaining[:0]
					for s := 0; s < k; s++ {
						if child.mask&(1<<uint(s)) == 0 {
							remaining = append(remaining, d.ones[s])
						}
					}
					pairs, tq, tobs := d.lhw.BestMatching(remaining)
					total := child.cost + tq
					if bestCost < 0 || total < bestCost {
						bestCost = total
						bestObs = chainObs(child) ^ tobs
						bestLeaf = child
						d.tail = append(d.tail[:0], pairs...)
					}
				} else {
					d.push((qi+committed)%d.cfg.FetchWidth, child)
				}
				committed++
			}
			// Unconsidered candidates remain: re-queue the parent with its
			// cursor advanced so the search stays complete.
			if ci < len(d.cand[focus]) {
				if bestCost < 0 || pm.cost+int(pm.remLB) < bestCost {
					pm.cur = ci
					d.push(qi, pm)
				}
			}
		}
		if !anyWork {
			break
		}
		cycles++
	}

	// Pairs is the returned result itself — the caller's, a fresh slice per
	// decode — sized once for the most pairs k bits can form.
	res := decoder.Result{
		Pairs:    make([][2]int, 0, k),
		Cycles:   fetchCycles + cycles,
		RealTime: fetchCycles+cycles <= hwmodel.BudgetCycles,
	}
	if bestCost < 0 {
		// Budget expired with no complete matching: fall back to matching
		// every bit to the boundary (the cheapest guaranteed-valid
		// correction the hardware can emit).
		for _, i := range d.ones {
			res.Pairs = append(res.Pairs, [2]int{i, decoder.Boundary})
			res.ObsPrediction ^= d.gwt.Obs(i, i)
			res.Weight += float64(d.gwt.Q(i, i))
		}
		return res
	}
	res.Weight = float64(bestCost)
	res.ObsPrediction = bestObs
	for pm := bestLeaf; pm != nil && pm.a >= 0; pm = pm.parent {
		pair := [2]int{d.ones[pm.a], decoder.Boundary}
		if pm.b >= 0 {
			pair[1] = d.ones[pm.b]
		}
		res.Pairs = append(res.Pairs, pair)
	}
	res.Pairs = append(res.Pairs, d.tail...)
	return res
}

// chainObs folds the observable parity along a pre-matching chain.
func chainObs(p *prematch) uint64 {
	var obs uint64
	for ; p != nil && p.a >= 0; p = p.parent {
		obs ^= p.obs
	}
	return obs
}

// CandidateCounts reports, for each flagged bit of the syndrome, how many
// partner candidates survive the W_th filter (excluding the always-present
// boundary entry) and how many existed before filtering — the data behind
// Figure 10(b).
func (d *Decoder) CandidateCounts(syndrome bitvec.Vec) (kept, total []int) {
	ones := syndrome.Ones(nil)
	k := len(ones)
	kept = make([]int, k)
	total = make([]int, k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a == b {
				continue
			}
			total[a]++
			if int(d.gwt.Q(ones[a], ones[b])) <= d.wthQ {
				kept[a]++
			}
		}
	}
	return kept, total
}
