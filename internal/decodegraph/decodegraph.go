// Package decodegraph turns a detector error model into the weighted
// decoding graph of §2.2 and the Global Weight Table (GWT) of §5.1.
//
// Nodes are detectors; each DEM mechanism contributes either an edge between
// two detectors or an edge from one detector to the (virtual) boundary. Edge
// weight is −log10(p), so lower weight means higher probability and adding
// weights along a path multiplies probabilities.
//
// The GWT holds, for every detector pair (i, j), the weight of the most
// probable error chain flipping exactly that pair, and on the diagonal the
// weight of the most probable chain connecting detector i to the boundary.
// Every entry also records whether that chain flips each logical
// observable, which is how a matching is converted into a logical-correction
// prediction. Pair weights are the minimum of the direct path and the two
// boundary paths (w(i,bnd) + w(j,bnd)): with that convention, exhaustively
// pairing up the flagged detectors (plus one explicit boundary node when the
// count is odd) is exactly equivalent to minimum-weight matching with an
// unlimited-degree boundary, which is what makes Astrea's pairing-only brute
// force an exact MWPM (§5.2).
//
// The paper fills the table with all-pairs Dijkstra. Here each detector's
// Dijkstra stops at its fold radius bnd(i) + max_j bnd(j) + FoldMargin: a
// direct chain past it is longer than bnd(i)+bnd(j) for every j, so the
// fold there is the boundary pair whatever the direct chain weighs. The
// folded entries are therefore exactly those of a complete search.
//
// A pair holds its float weight, its 8-bit quantised weight (the
// fixed-point representation the hardware design stores in SRAM: 4
// fractional bits, i.e. 1/16 decade resolution) and one parity bit per
// observable plane: 9.125 bytes for a one-observable memory experiment.
// The boundary-avoiding direct chain, which only the exact matching
// engines read, is recovered rather than stored: it is the entry itself
// where the fold chose it, a short near list holds the few that lie within
// FoldMargin above their fold, and every other one is +Inf (see
// DirectWeight, and FoldMargin for why no exact matching can use such a
// chain).
package decodegraph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"astrea/internal/circuit"
	"astrea/internal/dem"
)

// QFracBits is the number of fractional bits in a quantised 8-bit weight.
const QFracBits = 4

// QScale is the fixed-point scale factor: quantised = round(weight × QScale).
const QScale = 1 << QFracBits

// QMax is the largest representable quantised weight; entries that exceed it
// saturate (the hardware treats them as "effectively impossible").
const QMax = 255

// Quantize converts a float weight (decades) to the 8-bit GWT encoding:
// w × QScale rounded half away from zero, clamped to [0, QMax]. Between
// the clamps x + 0.5 truncates to round(x) exactly: for x ≥ 1 adding 0.5
// is exact or carries into the next binade only at x ≥ 2^e − 0.5, where
// round(x) is 2^e anyway; below 1 the sum lies in [1, 1.5).
func Quantize(w float64) uint8 {
	x := w * QScale
	switch {
	case x < 0.5:
		return 0
	case x >= QMax-0.5:
		return QMax
	}
	return uint8(x + 0.5)
}

// Dequantize converts an 8-bit GWT weight back to decades.
func Dequantize(q uint8) float64 { return float64(q) / QScale }

// Graph is the sparse decoding graph of one detector error model.
type Graph struct {
	// N is the number of detector nodes; the virtual boundary is node N.
	N int
	// Metas carries per-detector coordinates (stabilizer index, round).
	Metas []circuit.DetMeta

	adj [][]Edge // length N+1; adj[N] is the boundary's adjacency

	// Lazily built sparse-engine views (see sparse.go). Graphs are shared
	// across decoder pools, so the views are built once and reused.
	sparseOnce sync.Once
	csr        *CSR
	bndW       []float64
	bndObs     []uint64
}

// Boundary returns the node index used for the virtual boundary.
func (g *Graph) Boundary() int { return g.N }

// Edge is one undirected edge of the sparse decoding graph as seen from a
// node: the partner (possibly the boundary index), the float weight, and
// the observable mask of the underlying mechanism.
type Edge struct {
	To  int
	W   float64
	Obs uint64
}

// Neighbors returns node u's incident edges (u may be the boundary index).
// The returned slice is owned by the graph; do not modify it.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// FromModel builds the sparse decoding graph from a DEM. Mechanisms with one
// detector become boundary edges; parallel edges keep only the lowest
// weight (they were already probability-merged per footprint by the DEM, so
// parallel edges here differ in observable effect only through distinct
// footprints, which FromCircuit rejects). Every node's edges lie in one
// shared backing array, in mechanism order.
func FromModel(m *dem.Model, metas []circuit.DetMeta) (*Graph, error) {
	if len(metas) != m.NumDetectors {
		return nil, fmt.Errorf("decodegraph: %d metas for %d detectors", len(metas), m.NumDetectors)
	}
	n := m.NumDetectors
	deg := make([]int, n+1)
	for _, e := range m.Errors {
		if e.P <= 0 || e.P >= 1 {
			return nil, fmt.Errorf("decodegraph: mechanism probability %v out of (0,1)", e.P)
		}
		switch len(e.Detectors) {
		case 1:
			deg[e.Detectors[0]]++
			deg[n]++
		case 2:
			deg[e.Detectors[0]]++
			deg[e.Detectors[1]]++
		default:
			return nil, fmt.Errorf("decodegraph: mechanism with %d detectors", len(e.Detectors))
		}
	}
	g := &Graph{N: n, Metas: metas, adj: make([][]Edge, n+1)}
	edges := make([]Edge, 2*len(m.Errors))
	for u, k := range deg {
		g.adj[u], edges = edges[:0:k], edges[k:]
	}
	for _, e := range m.Errors {
		w := -math.Log10(e.P)
		u, v := e.Detectors[0], n
		if len(e.Detectors) == 2 {
			v = e.Detectors[1]
		}
		g.adj[u] = append(g.adj[u], Edge{To: v, W: w, Obs: e.ObsMask})
		g.adj[v] = append(g.adj[v], Edge{To: u, W: w, Obs: e.ObsMask})
	}
	return g, nil
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node int
	dist float64
}

// minHeap is a typed binary min-heap of Dijkstra frontier entries, keyed on
// dist. Unlike container/heap it boxes nothing through interface{} and its
// backing array is reused across runs (reset keeps the capacity), so the
// BuildGWT hot loop — one Dijkstra per node — performs no per-push
// allocations after warm-up.
type minHeap struct {
	items []pqItem
}

func newMinHeap(capacity int) *minHeap {
	return &minHeap{items: make([]pqItem, 0, capacity)}
}

func (h *minHeap) reset() { h.items = h.items[:0] }

func (h *minHeap) push(it pqItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *minHeap) pop() pqItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && h.items[r].dist < h.items[l].dist {
			m = r
		}
		if h.items[i].dist <= h.items[m].dist {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top
}

// shortestFrom runs Dijkstra from src over the N+1 node graph to
// completion; see shortestWithin.
func (g *Graph) shortestFrom(src int, dist []float64, obs []uint64, h *minHeap) {
	g.shortestWithin(src, math.Inf(1), dist, obs, h)
}

// shortestWithin runs Dijkstra from src over the N+1 node graph until every
// node within radius of src is settled, filling dist and the observable
// parity of the chosen shortest path per node. The caller supplies the
// frontier heap so one allocation serves every source.
//
// The run is a prefix of the complete run: it pops the same entries in the
// same order and stops at the first one past radius. Edge weights are
// positive, so a settled node's dist and obs never change afterwards, and
// every node with dist[j] ≤ radius holds exactly the complete run's values.
// Every other node's true distance exceeds radius; its entries are
// tentative.
//
// The boundary node is an endpoint, never an intermediate hop: unless it is
// the source it is not expanded, so dist[j] for a detector source is the
// weight of the best boundary-avoiding ("direct") chain. A route through
// the boundary is by definition two boundary chains, which the GWT fold and
// the matching formulations account for separately as bnd(i)+bnd(j).
func (g *Graph) shortestWithin(src int, radius float64, dist []float64, obs []uint64, h *minHeap) {
	for i := range dist {
		dist[i] = math.Inf(1)
		obs[i] = 0
	}
	dist[src] = 0
	h.reset()
	h.push(pqItem{node: src})
	for len(h.items) > 0 {
		it := h.pop()
		if it.dist > radius {
			break
		}
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == g.N && src != g.N {
			continue
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.W
			if nd < dist[e.To] {
				dist[e.To] = nd
				obs[e.To] = obs[it.node] ^ e.Obs
				h.push(pqItem{node: e.To, dist: nd})
			}
		}
	}
}

// FoldMargin (ε, in decades) is how far past bnd(i)+bnd(j) a direct chain
// may lie and still be recorded (see DirectWeight). The exact engines round
// each chain to a fixed point of 2⁻¹⁶ decades (exactmatch.WeightScale),
// half a unit at most, so a margin over 1.5 units puts Base(direct) at
// least one unit above Base(bnd(i))+Base(bnd(j)) for every chain past it:
// the lifted direct chain can never beat the lifted through-boundary pair,
// and dropping it changes no decision. exactmatch's
// TestFoldMarginCoversRounding holds ε to at least two units.
const FoldMargin = 1e-3

// foldRadius is detector i's Dijkstra radius R_i = bnd(i) + max_j bnd(j) +
// ε: no direct chain from i longer than R_i can beat the fold to any j.
func foldRadius(bndI, bndMax float64) float64 { return bndI + bndMax + FoldMargin }

// GWT is the Global Weight Table: dense pair chain weights with the
// boundary chain on the diagonal, in both float and hardware (8-bit
// quantised) form, plus the observable parity of each chain. Every entry
// is exact: min(direct, bnd(i)+bnd(j)) with its parity.
//
// A pair costs 9 bytes and one bit per observable plane (TableBytes). The
// boundary-avoiding direct chain is not stored per pair: where the fold
// chose it, it is the entry itself, and the few pairs whose direct chain
// lies within FoldMargin above the fold are kept in a short sorted list
// (see DirectWeight).
type GWT struct {
	N     int
	Metas []circuit.DetMeta

	w []float64 // N×N, row-major; w[i*N+i] is the boundary weight of i
	q []uint8

	// obs holds every entry's observable parity as bit planes, one per
	// observable some edge flips: bit j of plane p's row i is bit
	// obsBits[p] of entry (i, j). Each row is obsWords words starting at
	// word (p*N+i)*obsWords, so the row workers never share a word.
	obs      []uint64
	obsBits  []uint8
	obsWords int

	// near holds, sorted by i*N+j, the direct chains of the pairs with
	// bnd(i)+bnd(j) ≤ direct ≤ bnd(i)+bnd(j)+FoldMargin, exact ties
	// included: the direct chains an exact matching may use that the
	// folded entry does not show.
	near []nearChain
}

// nearChain is one direct chain of GWT.near: entry k = i*N+j.
type nearChain struct {
	k   int
	w   float64
	obs uint64
}

// nearChainBytes is the resident size of one nearChain.
const nearChainBytes = 24

// posInfBits is the bit pattern of +Inf.
const posInfBits = 0x7ff0000000000000

// BuildGWT computes the Global Weight Table: one Dijkstra from the boundary,
// then a per-source Dijkstra from every detector i to its fold radius
// R_i = bnd(i) + max_j bnd(j) + FoldMargin. Pair entries are the fold
// min(direct, bnd(i)+bnd(j)). A direct chain longer than R_i exceeds
// bnd(i)+bnd(j) for every j, so the fold is the boundary pair there, and
// the truncated run — a prefix of the complete one — yields the complete
// run's w, q and obs bit for bit. The near list needs only direct chains
// up to bnd(i)+bnd(j)+FoldMargin ≤ R_i, which the truncated run settles
// exactly too.
//
// The per-row Dijkstras are independent and each writes only its own row,
// so they are split across GOMAXPROCS goroutines; the table does not depend
// on the worker count.
func (g *Graph) BuildGWT() (*GWT, error) {
	n := g.N
	// All distances to the boundary first (single Dijkstra from boundary).
	bndW := make([]float64, n+1)
	bndObs := make([]uint64, n+1)
	g.shortestFrom(g.Boundary(), bndW, bndObs, newMinHeap(n+1))
	bndMax := 0.0
	for i := 0; i < n; i++ {
		if math.IsInf(bndW[i], 1) {
			return nil, fmt.Errorf("decodegraph: detector %d cannot reach the boundary", i)
		}
		bndMax = max(bndMax, bndW[i])
	}

	t := &GWT{
		N:        n,
		Metas:    g.Metas,
		w:        make([]float64, n*n),
		q:        make([]uint8, n*n),
		obsBits:  g.obsBits(),
		obsWords: (n + 63) / 64,
	}
	t.obs = make([]uint64, len(t.obsBits)*n*t.obsWords)

	// Every detector reaches the boundary, so every pair has the finite
	// through-boundary chain bnd(i)+bnd(j): no pair can be disconnected.
	workers := min(runtime.GOMAXPROCS(0), n)
	near := make([][]nearChain, workers)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist := make([]float64, n+1)
			obs := make([]uint64, n+1)
			h := newMinHeap(n + 1)
			var mine []nearChain
			for i := k; i < n; i += workers {
				mine = t.fillRow(g, i, foldRadius(bndW[i], bndMax), bndW, bndObs, dist, obs, h, mine)
			}
			near[k] = mine
		}()
	}
	wg.Wait()
	for _, c := range near {
		t.near = append(t.near, c...)
	}
	slices.SortFunc(t.near, func(a, b nearChain) int { return cmp.Compare(a.k, b.k) })
	return t, nil
}

// obsBits lists, ascending, the observables some edge flips: the only bits
// a chain's parity can carry.
func (g *Graph) obsBits() []uint8 {
	var union uint64
	for _, arcs := range g.adj {
		for _, e := range arcs {
			union |= e.Obs
		}
	}
	var out []uint8
	for ; union != 0; union &= union - 1 {
		out = append(out, uint8(bits.TrailingZeros64(union)))
	}
	return out
}

// fillRow fills row i of the table from one Dijkstra out of detector i,
// stopped at radius, using the caller's scratch, and returns near with the
// row's near chains appended.
func (t *GWT) fillRow(g *Graph, i int, radius float64, bndW []float64, bndObs []uint64, dist []float64, obs []uint64, h *minHeap, near []nearChain) []nearChain {
	n := t.N
	g.shortestWithin(i, radius, dist, obs, h)
	dist[i], obs[i] = bndW[i], bndObs[i] // the diagonal is the boundary chain
	w, q := t.w[i*n:(i+1)*n], t.q[i*n:(i+1)*n]
	for j := range w {
		d, o := dist[j], obs[j]
		if j != i {
			via := bndW[i] + bndW[j]
			if via <= d && d <= via+FoldMargin {
				near = append(near, nearChain{k: i*n + j, w: d, obs: o})
			}
			if via < d {
				d, o = via, bndObs[i]^bndObs[j]
			}
		}
		w[j], q[j], obs[j] = d, Quantize(d), o
	}
	// Pack the row's parities, now in obs, into each plane a word at a time.
	for p, b := range t.obsBits {
		row := t.obs[(p*n+i)*t.obsWords:][:t.obsWords]
		for k := range row {
			var word uint64
			for bit, o := range obs[k*64 : min(n, k*64+64)] {
				word |= (o >> b & 1) << bit
			}
			row[k] = word
		}
	}
	return near
}

// Weight returns the float chain weight between detectors i and j; Weight(i,
// i) is detector i's boundary chain weight.
func (t *GWT) Weight(i, j int) float64 { return t.w[i*t.N+j] }

// Q returns the 8-bit quantised chain weight, diagonal = boundary.
func (t *GWT) Q(i, j int) uint8 { return t.q[i*t.N+j] }

// Obs returns the observable mask of the chain between i and j (diagonal =
// boundary chain), gathered from the bit planes.
func (t *GWT) Obs(i, j int) uint64 {
	var o uint64
	for p, b := range t.obsBits {
		o |= (t.obs[(p*t.N+i)*t.obsWords+j>>6] >> (j & 63) & 1) << b
	}
	return o
}

// BoundaryWeight is shorthand for Weight(i, i).
func (t *GWT) BoundaryWeight(i int) float64 { return t.w[i*t.N+i] }

// DirectWeight returns the boundary-avoiding chain between i and j (i must
// differ from j) when it is at most bnd(i)+bnd(j)+FoldMargin, else +Inf.
// +Inf also covers pairs whose only connection runs through the boundary.
// Below bnd(i)+bnd(j) the fold chose the direct chain, so it is Weight(i,
// j); from there up to the margin it is on the near list (NearWeight).
// Every pair an exact matching can match directly lies within the margin:
// past it the direct chain exceeds bnd(i)+bnd(j)+FoldMargin, which no
// fixed-point rounding can bring below the boundary pair.
func (t *GWT) DirectWeight(i, j int) float64 {
	if w := t.w[i*t.N+j]; w < t.BoundaryWeight(i)+t.BoundaryWeight(j) {
		return w
	}
	return t.NearWeight(i, j)
}

// DirectObs returns the observable mask of the direct chain between i and
// j; 0 where DirectWeight is +Inf.
func (t *GWT) DirectObs(i, j int) uint64 {
	if t.w[i*t.N+j] < t.BoundaryWeight(i)+t.BoundaryWeight(j) {
		return t.Obs(i, j)
	}
	c, _ := t.nearChain(i, j) // the zero chain, parity 0, when absent
	return c.obs
}

// NearWeight returns the direct chain between i and j when Weight(i, j) is
// at least bnd(i)+bnd(j) — the fold shows the boundary pair, or an exact
// tie — and the direct chain lies within FoldMargin of it; else +Inf.
// Callers that already hold both boundary weights read Weight(i, j) first
// and consult NearWeight only when it is not below their sum.
func (t *GWT) NearWeight(i, j int) float64 {
	if len(t.near) == 0 { // the near list is empty on nearly every table
		return math.Float64frombits(posInfBits) // math.Inf(1), cheap enough to inline
	}
	return t.nearWeight(i, j)
}

// nearWeight is NearWeight's search, kept out of line so the empty-list
// test inlines into the dense MWPM adapter's pair loop.
func (t *GWT) nearWeight(i, j int) float64 {
	if c, ok := t.nearChain(i, j); ok {
		return c.w
	}
	return math.Inf(1)
}

// nearChain looks (i, j) up on the near list.
func (t *GWT) nearChain(i, j int) (nearChain, bool) {
	x, ok := slices.BinarySearchFunc(t.near, i*t.N+j, func(c nearChain, k int) int { return cmp.Compare(c.k, k) })
	if !ok {
		return nearChain{}, false
	}
	return t.near[x], true
}

// WeightHistogram bins every off-diagonal GWT weight (and, separately
// included, the diagonal boundary weights) into unit-decade buckets
// [0,1), [1,2), …, which regenerates Figure 10(a)'s pair-weight
// distribution. Entries beyond maxBucket land in the last bucket.
func (t *GWT) WeightHistogram(maxBucket int) []int {
	h := make([]int, maxBucket+1)
	for i := 0; i < t.N; i++ {
		for j := i; j < t.N; j++ {
			b := int(t.w[i*t.N+j])
			if b > maxBucket {
				b = maxBucket
			}
			h[b]++
		}
	}
	return h
}

// SizeBytes is the SRAM footprint of the table at one byte per entry, the
// quantity reported in Table 6 (36 KB at d=7, 156 KB at d=9).
func (t *GWT) SizeBytes() int { return t.N * t.N }

// TableBytes is the resident size of an n-detector table whose parities
// span planes observables: 8 bytes of float and 1 of quantised weight per
// pair, plus one bit per pair and plane in word-aligned rows. It is 9.125
// bytes a pair for the one-observable memory experiments.
func TableBytes(n, planes int) int64 {
	n64 := int64(n)
	return n64*n64*9 + n64*int64((n+63)/64)*8*int64(planes)
}

// ResidentBytes is the table's resident size in memory: TableBytes plus
// its near list.
func (t *GWT) ResidentBytes() int64 {
	return TableBytes(t.N, len(t.obsBits)) + int64(len(t.near))*nearChainBytes
}
