// Package decodegraph turns a detector error model into the weighted
// decoding graph of §2.2 and the Global Weight Table (GWT) of §5.1.
//
// Nodes are detectors; each DEM mechanism contributes either an edge between
// two detectors or an edge from one detector to the (virtual) boundary. Edge
// weight is −log10(p), so lower weight means higher probability and adding
// weights along a path multiplies probabilities.
//
// The GWT holds, for every detector pair (i, j), the weight of the most
// probable error chain flipping exactly that pair — the all-pairs shortest
// path through the sparse graph — and on the diagonal the weight of the most
// probable chain connecting detector i to the boundary. Every entry also
// records whether that chain flips each logical observable, which is how a
// matching is converted into a logical-correction prediction. Pair weights
// are the minimum of the direct path and the two boundary paths
// (w(i,bnd) + w(j,bnd)): with that convention, exhaustively pairing up the
// flagged detectors (plus one explicit boundary node when the count is odd)
// is exactly equivalent to minimum-weight matching with an unlimited-degree
// boundary, which is what makes Astrea's pairing-only brute force an exact
// MWPM (§5.2).
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

// shortestFrom runs Dijkstra from src over the N+1 node graph, filling dist
// and the observable parity of the chosen shortest path per node. The
// caller supplies the frontier heap so one allocation serves every source.
//
// The boundary node is an endpoint, never an intermediate hop: unless it is
// the source it is not expanded, so dist[j] for a detector source is the
// weight of the best boundary-avoiding ("direct") chain. A route through
// the boundary is by definition two boundary chains, which the GWT fold and
// the matching formulations account for separately as bnd(i)+bnd(j).
func (g *Graph) shortestFrom(src int, dist []float64, obs []uint64, h *minHeap) {
	for i := range dist {
		dist[i] = math.Inf(1)
		obs[i] = 0
	}
	dist[src] = 0
	h.reset()
	h.push(pqItem{node: src})
	for len(h.items) > 0 {
		it := h.pop()
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

// GWT is the Global Weight Table: dense all-pairs chain weights with the
// boundary chain on the diagonal, in both float and hardware (8-bit
// quantised) form, plus the observable parity of each chain.
type GWT struct {
	N     int
	Metas []circuit.DetMeta

	w   []float64 // N×N, row-major; w[i*N+i] is the boundary weight of i
	q   []uint8
	obs []uint64

	// direct holds the raw all-pairs shortest paths without the
	// through-boundary alternative, with matching observable parities; used
	// by the boundary-duplication MWPM formulation and its equivalence tests.
	direct    []float64
	directObs []uint64
}

// BuildGWT computes the Global Weight Table by running Dijkstra from every
// node. Pair entries already include the through-boundary alternative
// min(direct, bnd(i)+bnd(j)). The per-row Dijkstras are independent and
// each writes only its own row, so they are split across GOMAXPROCS
// goroutines; the table is byte-identical to a serial build.
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
	for i := 0; i < n; i++ {
		if math.IsInf(bndW[i], 1) {
			return nil, fmt.Errorf("decodegraph: detector %d cannot reach the boundary", i)
		}
		t.w[i*n+i] = bndW[i]
		t.obs[i*n+i] = bndObs[i]
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
				t.fillRow(g, i, bndW, bndObs, dist, obs, h)
			}
		}()
	}
	wg.Wait()
	return t, nil
}

// fillRow fills row i of the table from one Dijkstra out of detector i,
// using the caller's scratch.
func (t *GWT) fillRow(g *Graph, i int, bndW []float64, bndObs []uint64, dist []float64, obs []uint64, h *minHeap) {
	n := t.N
	g.shortestFrom(i, dist, obs, h)
	for j := 0; j < n; j++ {
		if j != i {
			w, o := dist[j], obs[j]
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

// DirectWeight returns the raw shortest-path weight between i and j without
// the through-boundary alternative (i must differ from j). Infinite when the
// only connection runs through the boundary.
func (t *GWT) DirectWeight(i, j int) float64 { return t.direct[i*t.N+j] }

// DirectObs returns the observable mask of the direct chain between i and j.
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
