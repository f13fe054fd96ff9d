package decodegraph

import (
	"fmt"
	"math"
)

// This file reconstructs the physical correction chains behind a matching:
// the concrete sequence of error mechanisms (graph edges) along the most
// probable path between two matched detectors, or from a detector to the
// boundary. The GWT stores only each chain's weight and logical parity —
// all a decoder needs to *score* — but a deployed decoder must emit the
// correction itself (§2.2: "errors are corrected using the shortest path
// between the parity qubits"), which is what ChainBetween provides.

// ChainStep is one edge of a correction chain.
type ChainStep struct {
	// From and To are detector indices; To may be the boundary index N.
	From, To int
	// W and Obs are the underlying mechanism's weight and logical mask.
	W   float64
	Obs uint64
}

// ChainBetween returns the most probable error chain connecting detectors
// i and j, choosing automatically between the direct path and the
// through-boundary alternative exactly as the GWT's effective weights do.
// Pass j == Boundary() (or j == i) for the chain from i to the boundary.
// The returned steps run from i towards j.
func (g *Graph) ChainBetween(i, j int) ([]ChainStep, error) {
	if i < 0 || i >= g.N {
		return nil, fmt.Errorf("decodegraph: detector %d out of range", i)
	}
	if j == i {
		j = g.Boundary()
	}
	if j != g.Boundary() && (j < 0 || j >= g.N) {
		return nil, fmt.Errorf("decodegraph: detector %d out of range", j)
	}
	direct, directW, err := g.tracePath(i, j)
	if err != nil {
		return nil, err
	}
	if j == g.Boundary() {
		return direct, nil
	}
	// Through-boundary alternative: i → boundary plus boundary → j.
	a, aw, err := g.tracePath(i, g.Boundary())
	if err != nil {
		return nil, err
	}
	b, bw, err := g.tracePath(j, g.Boundary())
	if err != nil {
		return nil, err
	}
	if directW <= aw+bw {
		return direct, nil
	}
	// Orient the second half boundary → j.
	out := append([]ChainStep(nil), a...)
	for k := len(b) - 1; k >= 0; k-- {
		s := b[k]
		out = append(out, ChainStep{From: s.To, To: s.From, W: s.W, Obs: s.Obs})
	}
	return out, nil
}

// tracePath runs Dijkstra from src and reconstructs the path to dst.
func (g *Graph) tracePath(src, dst int) ([]ChainStep, float64, error) {
	n := g.N + 1
	dist := make([]float64, n)
	prev := make([]int, n)
	prevEdge := make([]Edge, n)
	for k := range dist {
		dist[k] = math.Inf(1)
		prev[k] = -1
	}
	dist[src] = 0
	h := newMinHeap(n)
	h.push(pqItem{node: src})
	for len(h.items) > 0 {
		it := h.pop()
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.W
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.node
				prevEdge[e.To] = e
				h.push(pqItem{node: e.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, fmt.Errorf("decodegraph: no path from %d to %d", src, dst)
	}
	var rev []ChainStep
	for at := dst; at != src; at = prev[at] {
		e := prevEdge[at]
		rev = append(rev, ChainStep{From: prev[at], To: at, W: e.W, Obs: e.Obs})
	}
	// Reverse into src → dst order.
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev, dist[dst], nil
}

// ChainObs folds a chain's logical effect.
func ChainObs(steps []ChainStep) uint64 {
	var o uint64
	for _, s := range steps {
		o ^= s.Obs
	}
	return o
}

// ChainWeight sums a chain's float weight.
func ChainWeight(steps []ChainStep) float64 {
	var w float64
	for _, s := range steps {
		w += s.W
	}
	return w
}
