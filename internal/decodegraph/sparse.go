package decodegraph

// This file exposes the precomputed views the sparse exact-matching engine
// (internal/sparsemwpm) works from: a flat compressed-sparse-row copy of
// the adjacency (cache-friendly truncated Dijkstras over int32 indices) and
// the per-detector boundary chains (the same single boundary Dijkstra
// BuildGWT runs for the GWT diagonal, so the view's floats are
// bit-identical to the table's). Both are built lazily, once, and shared: a
// Graph is immutable after FromModel.

// CSR is a compressed-sparse-row view of the decoding graph's adjacency.
// Rows 0..N-1 are detectors, row N is the boundary. The arc list of node u
// is To/W/Obs[RowStart[u]:RowStart[u+1]], in the same order FromModel
// appended the half-edges (deterministic across builds).
type CSR struct {
	N        int
	RowStart []int32
	To       []int32
	W        []float64
	Obs      []uint64
}

// Degree returns the number of arcs incident to node u.
func (c *CSR) Degree(u int) int { return int(c.RowStart[u+1] - c.RowStart[u]) }

func (g *Graph) sparseInit() {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	c := &CSR{
		N:        g.N,
		RowStart: make([]int32, g.N+2),
		To:       make([]int32, 0, total),
		W:        make([]float64, 0, total),
		Obs:      make([]uint64, 0, total),
	}
	for u, arcs := range g.adj {
		c.RowStart[u] = int32(len(c.To))
		for _, e := range arcs {
			c.To = append(c.To, int32(e.To))
			c.W = append(c.W, e.W)
			c.Obs = append(c.Obs, e.Obs)
		}
	}
	c.RowStart[g.N+1] = int32(len(c.To))
	g.csr = c

	dist := make([]float64, g.N+1)
	obs := make([]uint64, g.N+1)
	g.shortestFrom(g.Boundary(), dist, obs, newMinHeap(g.N+1))
	g.bndW = dist[:g.N]
	g.bndObs = obs[:g.N]
}

// CSR returns the flat adjacency view, building it on first use.
func (g *Graph) CSR() *CSR {
	g.sparseOnce.Do(g.sparseInit)
	return g.csr
}

// BoundaryChains returns, per detector, the weight and observable parity of
// its most probable boundary chain — the same values BuildGWT places on the
// GWT diagonal, computed by the same Dijkstra, so the two agree bit-for-bit.
// Entries are +Inf for detectors that cannot reach the boundary (BuildGWT
// rejects such graphs, so engines running over a built environment can
// assume finiteness). The returned slices are owned by the graph.
func (g *Graph) BoundaryChains() (w []float64, obs []uint64) {
	g.sparseOnce.Do(g.sparseInit)
	return g.bndW, g.bndObs
}
