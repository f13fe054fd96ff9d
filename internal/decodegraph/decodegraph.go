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
// folded entries are therefore exactly those of a complete search; only the
// separately kept direct chain reads +Inf past the radius (see
// DirectWeight, and FoldMargin for why no exact matching can use such a
// chain).
//
// Entries are also quantised to the 8-bit fixed-point representation the
// hardware design stores in SRAM (4 fractional bits, i.e. 1/16 decade
// resolution).
package decodegraph

import (
	"fmt"
	"math"
	"runtime"
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

// Quantize converts a float weight (decades) to the 8-bit GWT encoding.
func Quantize(w float64) uint8 {
	q := math.Round(w * QScale)
	if q < 0 {
		return 0
	}
	if q > QMax {
		return QMax
	}
	return uint8(q)
}

// Dequantize converts an 8-bit GWT weight back to decades.
func Dequantize(q uint8) float64 { return float64(q) / QScale }

// halfEdge is one directed arc of the sparse graph.
type halfEdge struct {
	to  int
	w   float64
	obs uint64
}

// Graph is the sparse decoding graph of one detector error model.
type Graph struct {
	// N is the number of detector nodes; the virtual boundary is node N.
	N int
	// Metas carries per-detector coordinates (stabilizer index, round).
	Metas []circuit.DetMeta

	adj [][]halfEdge // length N+1; adj[N] is the boundary's adjacency

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
func (g *Graph) Neighbors(u int) []Edge {
	out := make([]Edge, len(g.adj[u]))
	for i, e := range g.adj[u] {
		out[i] = Edge{To: e.to, W: e.w, Obs: e.obs}
	}
	return out
}

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
// footprints, which FromCircuit rejects).
func FromModel(m *dem.Model, metas []circuit.DetMeta) (*Graph, error) {
	if len(metas) != m.NumDetectors {
		return nil, fmt.Errorf("decodegraph: %d metas for %d detectors", len(metas), m.NumDetectors)
	}
	g := &Graph{
		N:     m.NumDetectors,
		Metas: metas,
		adj:   make([][]halfEdge, m.NumDetectors+1),
	}
	for _, e := range m.Errors {
		if e.P <= 0 || e.P >= 1 {
			return nil, fmt.Errorf("decodegraph: mechanism probability %v out of (0,1)", e.P)
		}
		w := -math.Log10(e.P)
		var u, v int
		switch len(e.Detectors) {
		case 1:
			u, v = e.Detectors[0], g.N
		case 2:
			u, v = e.Detectors[0], e.Detectors[1]
		default:
			return nil, fmt.Errorf("decodegraph: mechanism with %d detectors", len(e.Detectors))
		}
		g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w, obs: e.ObsMask})
		g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w, obs: e.ObsMask})
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
			nd := it.dist + e.w
			if nd < dist[e.to] {
				dist[e.to] = nd
				obs[e.to] = obs[it.node] ^ e.obs
				h.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
}

// FoldMargin (ε, in decades) is how far past bnd(i)+bnd(j) a direct chain
// must lie before the table stops recording it. The exact engines round
// each chain to a fixed point of 2⁻¹⁶ decades (exactmatch.WeightScale),
// half a unit at most, so a margin over 1.5 units puts Base(direct) at
// least one unit above Base(bnd(i))+Base(bnd(j)): the lifted direct chain
// can never beat the lifted through-boundary pair, and dropping it changes
// no decision. exactmatch's TestFoldMarginCoversRounding holds ε to at
// least two units.
const FoldMargin = 1e-3

// foldRadius is detector i's Dijkstra radius R_i = bnd(i) + max_j bnd(j) +
// ε: no direct chain from i longer than R_i can beat the fold to any j.
func foldRadius(bndI, bndMax float64) float64 { return bndI + bndMax + FoldMargin }

// GWT is the Global Weight Table: dense pair chain weights with the
// boundary chain on the diagonal, in both float and hardware (8-bit
// quantised) form, plus the observable parity of each chain. Every entry of
// w, q and obs is exact: min(direct, bnd(i)+bnd(j)) with its parity.
type GWT struct {
	N     int
	Metas []circuit.DetMeta

	w   []float64 // N×N, row-major; w[i*N+i] is the boundary weight of i
	q   []uint8
	obs []uint64

	// direct holds the boundary-avoiding shortest path of every pair that
	// lies within row i's fold radius (see BuildGWT), with its observable
	// parity; farther pairs hold +Inf and 0. The dense MWPM formulation
	// and Score read it; both treat +Inf as "fold".
	direct    []float64
	directObs []uint64
}

// BuildGWT computes the Global Weight Table: one Dijkstra from the boundary,
// then a per-source Dijkstra from every detector i to its fold radius
// R_i = bnd(i) + max_j bnd(j) + FoldMargin. Pair entries are the fold
// min(direct, bnd(i)+bnd(j)). A direct chain longer than R_i exceeds
// bnd(i)+bnd(j) for every j, so the fold is the boundary pair there, and
// the truncated run — a prefix of the complete one — yields the complete
// run's w, q and obs bit for bit. Only direct changes: past R_i it is +Inf
// (see DirectWeight).
//
// The per-row Dijkstras are independent and each writes only its own row,
// so they are split across GOMAXPROCS goroutines; the table does not depend
// on the worker count.
func (g *Graph) BuildGWT() (*GWT, error) {
	n := g.N
	t := &GWT{
		N:         n,
		Metas:     g.Metas,
		w:         make([]float64, n*n),
		q:         make([]uint8, n*n),
		obs:       make([]uint64, n*n),
		direct:    make([]float64, n*n),
		directObs: make([]uint64, n*n),
	}

	// All distances to the boundary first (single Dijkstra from boundary).
	bndW := make([]float64, n+1)
	bndObs := make([]uint64, n+1)
	g.shortestFrom(g.Boundary(), bndW, bndObs, newMinHeap(n+1))
	bndMax := 0.0
	for i := 0; i < n; i++ {
		if math.IsInf(bndW[i], 1) {
			return nil, fmt.Errorf("decodegraph: detector %d cannot reach the boundary", i)
		}
		t.w[i*n+i] = bndW[i]
		t.obs[i*n+i] = bndObs[i]
		bndMax = max(bndMax, bndW[i])
	}

	// Every detector reaches the boundary, so every pair has the finite
	// through-boundary chain bnd(i)+bnd(j): no pair can be disconnected.
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist := make([]float64, n+1)
			obs := make([]uint64, n+1)
			h := newMinHeap(n + 1)
			for i := k; i < n; i += workers {
				t.fillRow(g, i, foldRadius(bndW[i], bndMax), bndW, bndObs, dist, obs, h)
			}
		}()
	}
	wg.Wait()
	return t, nil
}

// fillRow fills row i of the table from one Dijkstra out of detector i,
// stopped at radius, using the caller's scratch.
func (t *GWT) fillRow(g *Graph, i int, radius float64, bndW []float64, bndObs []uint64, dist []float64, obs []uint64, h *minHeap) {
	n := t.N
	g.shortestWithin(i, radius, dist, obs, h)
	for j := 0; j < n; j++ {
		if j != i {
			w, o := dist[j], obs[j]
			if w > radius {
				w, o = math.Inf(1), 0
			}
			t.direct[i*n+j] = w
			t.directObs[i*n+j] = o
			if via := bndW[i] + bndW[j]; via < w {
				w, o = via, bndObs[i]^bndObs[j]
			}
			t.w[i*n+j] = w
			t.obs[i*n+j] = o
		}
		t.q[i*n+j] = Quantize(t.w[i*n+j])
	}
}

// Weight returns the float chain weight between detectors i and j; Weight(i,
// i) is detector i's boundary chain weight.
func (t *GWT) Weight(i, j int) float64 { return t.w[i*t.N+j] }

// Q returns the 8-bit quantised chain weight, diagonal = boundary.
func (t *GWT) Q(i, j int) uint8 { return t.q[i*t.N+j] }

// Obs returns the observable mask of the chain between i and j (diagonal =
// boundary chain).
func (t *GWT) Obs(i, j int) uint64 { return t.obs[i*t.N+j] }

// BoundaryWeight is shorthand for Weight(i, i).
func (t *GWT) BoundaryWeight(i int) float64 { return t.w[i*t.N+i] }

// DirectWeight returns the boundary-avoiding chain between i and j (i must
// differ from j) when it is shorter than row i's fold radius, else +Inf.
// +Inf also covers pairs whose only connection runs through the boundary.
// Every pair an exact matching can match directly lies inside the radius:
// past it the direct chain exceeds bnd(i)+bnd(j)+FoldMargin, which no
// fixed-point rounding can bring below the boundary pair.
func (t *GWT) DirectWeight(i, j int) float64 { return t.direct[i*t.N+j] }

// DirectObs returns the observable mask of the direct chain between i and
// j; 0 where DirectWeight is +Inf.
func (t *GWT) DirectObs(i, j int) uint64 { return t.directObs[i*t.N+j] }

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
