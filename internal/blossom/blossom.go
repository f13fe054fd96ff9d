// Package blossom implements exact minimum-weight perfect matching on
// complete graphs via Edmonds' blossom algorithm with dual variables — the
// role BlossomV plays in the paper (§3.3): the gold-standard software MWPM
// baseline, and the oracle against which Astrea's exhaustive search is
// verified.
//
// The core is an O(n³)-style maximum-weight perfect matching with blossom
// shrinking/expansion and dual adjustment; minimum-weight perfect matching
// is obtained by the complement transform w'(u,v) = C − w(u,v) with C larger
// than any weight. Like Blossom V, it starts warm: every vertex dual is
// first lowered to its tightest edge and the tight edges are matched
// greedily, so on decoding-graph inputs most vertices are matched before
// the first alternating tree is grown.
//
// Weights are integers; callers quantise float weights (the decoding graph
// uses a 2¹⁶ fixed-point scale, far finer than the hardware's 8-bit GWT).
package blossom

import (
	"errors"
	"fmt"
	"slices"
)

const inf = int64(1) << 62

// MaxWeight is the largest edge weight MinWeightPerfect accepts. Shifted
// and doubled, a weight enters the slack arithmetic as at most
// 4·(MaxWeight+1) = 2⁵⁴, a factor of 2⁸ below the 2⁶² ∞ sentinel. The
// duals use little of that room: on random, two-valued and metric graphs
// up to n = 60 they stay within [−M, 2M] of the largest doubled weight
// M = 2·(MaxWeight+1). The heaviest weight the decoders pass is about
// 2⁴⁴ (see TestDenseMatchesColdOracle).
const MaxWeight = int64(1)<<52 - 1

var (
	errNoDelta      = errors.New("blossom: no finite dual step (internal error on complete graph)")
	errUnmatched    = errors.New("blossom: no perfect matching found (internal error on complete graph)")
	errInconsistent = errors.New("blossom: inconsistent matching (internal error)")
)

// The formatted errors are built out of line, so the per-call functions
// stay free of fmt.
func errOrder(n int) error {
	return fmt.Errorf("blossom: n must be positive and even, got %d", n)
}

func errWeight(w int64, i, j int) error {
	return fmt.Errorf("blossom: weight %d at (%d,%d) outside [0, MaxWeight]", w, i, j)
}

// edge is the representative edge between two (possibly shrunken)
// vertices: original endpoints u, v and the doubled complement weight w.
type edge struct {
	u, v int32
	w    int64
}

// Solver carries reusable buffers for repeated matchings. The zero value is
// ready to use; it is not safe for concurrent use.
type Solver struct {
	n, nx  int
	stride int    // row length of g: 2n+1 for the current call
	g      []edge // row-major stride×stride; rows and columns above n are blossoms
	lab    []int64
	match  []int
	slack  []int
	st     []int
	pa     []int
	ffrom  []int // blossom rows only: ffrom[(b-n-1)*(n+1)+x], x ≤ n
	s      []int8
	vis    []int
	fl     [][]int
	q      []int
	qh     int // q head index: popping by re-slicing would leak capacity
	t      int // getLca stamp; never reset, so vis needs no clearing

	mate []int // MinWeightPerfect scratch: the returned matching
}

func (sv *Solver) at(u, v int) *edge { return &sv.g[u*sv.stride+v] }

// fromRow is blossom b's ffrom row: entry x ≤ n names the member of b
// that contains vertex x, or 0. Vertex rows would be the identity, so they
// are not stored.
func (sv *Solver) fromRow(b int) []int {
	return sv.ffrom[(b-sv.n-1)*(sv.n+1) : (b-sv.n)*(sv.n+1)]
}

func (sv *Solver) eDelta(e *edge) int64 {
	return sv.lab[e.u] + sv.lab[e.v] - e.w*2
}

func (sv *Solver) updateSlack(u, x int) {
	if sv.slack[x] == 0 || sv.eDelta(sv.at(u, x)) < sv.eDelta(sv.at(sv.slack[x], x)) {
		sv.slack[x] = u
	}
}

func (sv *Solver) setSlack(x int) {
	sv.slack[x] = 0
	for u := 1; u <= sv.n; u++ {
		if sv.at(u, x).w > 0 && sv.st[u] != x && sv.s[sv.st[u]] == 0 {
			sv.updateSlack(u, x)
		}
	}
}

func (sv *Solver) qPush(x int) {
	if x <= sv.n {
		sv.q = append(sv.q, x)
		return
	}
	for _, p := range sv.fl[x] {
		sv.qPush(p)
	}
}

func (sv *Solver) setSt(x, b int) {
	sv.st[x] = b
	if x > sv.n {
		for _, p := range sv.fl[x] {
			sv.setSt(p, b)
		}
	}
}

func (sv *Solver) getPr(b, xr int) int {
	pr := 0
	for i, p := range sv.fl[b] {
		if p == xr {
			pr = i
			break
		}
	}
	if pr%2 == 1 {
		// Reverse the tail so the even-length alternating path is kept.
		f := sv.fl[b]
		slices.Reverse(f[1:])
		return len(f) - pr
	}
	return pr
}

func (sv *Solver) setMatch(u, v int) {
	e := sv.at(u, v)
	sv.match[u] = int(e.v)
	if u <= sv.n {
		return
	}
	xr := sv.fromRow(u)[e.u]
	pr := sv.getPr(u, xr)
	for i := 0; i < pr; i++ {
		sv.setMatch(sv.fl[u][i], sv.fl[u][i^1])
	}
	sv.setMatch(xr, v)
	// Rotate the cycle left by pr in place, so the new base leads.
	f := sv.fl[u]
	slices.Reverse(f[:pr])
	slices.Reverse(f[pr:])
	slices.Reverse(f)
}

func (sv *Solver) augment(u, v int) {
	for {
		xnv := sv.st[sv.match[u]]
		sv.setMatch(u, v)
		if xnv == 0 {
			return
		}
		sv.setMatch(xnv, sv.st[sv.pa[xnv]])
		u, v = sv.st[sv.pa[xnv]], xnv
	}
}

func (sv *Solver) getLca(u, v int) int {
	sv.t++
	for u != 0 || v != 0 {
		if u != 0 {
			if sv.vis[u] == sv.t {
				return u
			}
			sv.vis[u] = sv.t
			u = sv.st[sv.match[u]]
			if u != 0 {
				u = sv.st[sv.pa[u]]
			}
		}
		u, v = v, u
	}
	return 0
}

func (sv *Solver) addBlossom(u, lca, v int) {
	b := sv.n + 1
	for b <= sv.nx && sv.st[b] != 0 {
		b++
	}
	if b > sv.nx {
		sv.nx++
	}
	sv.lab[b] = 0
	sv.s[b] = 0
	sv.match[b] = sv.match[lca]
	sv.fl[b] = append(sv.fl[b][:0], lca)
	for x := u; x != lca; {
		y := sv.st[sv.match[x]]
		sv.fl[b] = append(sv.fl[b], x, y)
		sv.qPush(y)
		x = sv.st[sv.pa[y]]
	}
	slices.Reverse(sv.fl[b][1:])
	for x := v; x != lca; {
		y := sv.st[sv.match[x]]
		sv.fl[b] = append(sv.fl[b], x, y)
		sv.qPush(y)
		x = sv.st[sv.pa[y]]
	}
	sv.setSt(b, b)
	for x := 1; x <= sv.nx; x++ {
		sv.at(b, x).w = 0
		sv.at(x, b).w = 0
	}
	from := sv.fromRow(b)
	clear(from)
	for _, xs := range sv.fl[b] {
		for x := 1; x <= sv.nx; x++ {
			if bx := sv.at(b, x); bx.w == 0 || sv.eDelta(sv.at(xs, x)) < sv.eDelta(bx) {
				*bx = *sv.at(xs, x)
				*sv.at(x, b) = *sv.at(x, xs)
			}
		}
		if xs <= sv.n {
			from[xs] = xs
			continue
		}
		for x, f := range sv.fromRow(xs) {
			if f != 0 {
				from[x] = xs
			}
		}
	}
	sv.setSlack(b)
}

func (sv *Solver) expandBlossom(b int) {
	for _, p := range sv.fl[b] {
		sv.setSt(p, p)
	}
	xr := sv.fromRow(b)[sv.at(b, sv.pa[b]).u]
	pr := sv.getPr(b, xr)
	for i := 0; i < pr; i += 2 {
		xs := sv.fl[b][i]
		xns := sv.fl[b][i+1]
		sv.pa[xs] = int(sv.at(xns, xs).u)
		sv.s[xs] = 1
		sv.s[xns] = 0
		sv.slack[xs] = 0
		sv.setSlack(xns)
		sv.qPush(xns)
	}
	sv.s[xr] = 1
	sv.pa[xr] = sv.pa[b]
	for i := pr + 1; i < len(sv.fl[b]); i++ {
		xs := sv.fl[b][i]
		sv.s[xs] = -1
		sv.setSlack(xs)
	}
	sv.st[b] = 0
}

func (sv *Solver) onFoundEdge(e *edge) bool {
	u, v := sv.st[e.u], sv.st[e.v]
	switch sv.s[v] {
	case -1:
		sv.pa[v] = int(e.u)
		sv.s[v] = 1
		nu := sv.st[sv.match[v]]
		sv.slack[v] = 0
		sv.slack[nu] = 0
		sv.s[nu] = 0
		sv.qPush(nu)
	case 0:
		lca := sv.getLca(u, v)
		if lca == 0 {
			sv.augment(u, v)
			sv.augment(v, u)
			return true
		}
		sv.addBlossom(u, lca, v)
	}
	return false
}

// matching grows alternating trees from every free vertex and adjusts the
// duals until one augmentation succeeds. It reports false once every vertex
// is matched. There is no max-weight early exit: the solver only ever runs
// on complete graphs of even order, where an augmenting path always exists
// while a vertex is free.
func (sv *Solver) matching() (bool, error) {
	for i := 0; i <= sv.nx; i++ {
		sv.s[i] = -1
		sv.slack[i] = 0
	}
	sv.q, sv.qh = sv.q[:0], 0
	for x := 1; x <= sv.nx; x++ {
		if sv.st[x] == x && sv.match[x] == 0 {
			sv.pa[x] = 0
			sv.s[x] = 0
			sv.qPush(x)
		}
	}
	if len(sv.q) == 0 {
		return false, nil
	}
	for {
		for sv.qh < len(sv.q) {
			u := sv.q[sv.qh]
			sv.qh++
			if sv.s[sv.st[u]] == 1 {
				continue
			}
			row := sv.g[u*sv.stride : u*sv.stride+sv.n+1]
			for v := 1; v <= sv.n; v++ {
				if e := &row[v]; e.w > 0 && sv.st[u] != sv.st[v] {
					if sv.eDelta(e) == 0 {
						if sv.onFoundEdge(e) {
							return true, nil
						}
					} else {
						sv.updateSlack(u, sv.st[v])
					}
				}
			}
		}
		d := inf
		for b := sv.n + 1; b <= sv.nx; b++ {
			if sv.st[b] == b && sv.s[b] == 1 {
				if half := sv.lab[b] / 2; half < d {
					d = half
				}
			}
		}
		for x := 1; x <= sv.nx; x++ {
			if sv.st[x] == x && sv.slack[x] != 0 {
				delta := sv.eDelta(sv.at(sv.slack[x], x))
				switch sv.s[x] {
				case -1:
					if delta < d {
						d = delta
					}
				case 0:
					if delta/2 < d {
						d = delta / 2
					}
				}
			}
		}
		if d == inf {
			return false, errNoDelta
		}
		for u := 1; u <= sv.n; u++ {
			switch sv.s[sv.st[u]] {
			case 0:
				sv.lab[u] -= d
			case 1:
				sv.lab[u] += d
			}
		}
		for b := sv.n + 1; b <= sv.nx; b++ {
			if sv.st[b] == b {
				switch sv.s[b] {
				case 0:
					sv.lab[b] += d * 2
				case 1:
					sv.lab[b] -= d * 2
				}
			}
		}
		sv.q, sv.qh = sv.q[:0], 0
		for x := 1; x <= sv.nx; x++ {
			if sv.st[x] == x && sv.slack[x] != 0 && sv.st[sv.slack[x]] != x {
				if e := sv.at(sv.slack[x], x); sv.eDelta(e) == 0 && sv.onFoundEdge(e) {
					return true, nil
				}
			}
		}
		for b := sv.n + 1; b <= sv.nx; b++ {
			if sv.st[b] == b && sv.s[b] == 1 && sv.lab[b] == 0 {
				sv.expandBlossom(b)
			}
		}
	}
}

// reset sizes the buffers for n vertices and restores the state a call
// dirties: the blossom membership of every slot and the vertex matching.
// Everything else is written before it is read — vertex rows and duals
// by load, blossom duals, rows and matches by addBlossom, labels, slacks
// and tree parents by matching — and getLca's stamp only grows, so stale
// vis entries can never equal it.
func (sv *Solver) reset(n int) {
	size := 2*n + 1
	if len(sv.lab) < size {
		sv.lab = make([]int64, size)
		sv.match = make([]int, size)
		sv.slack = make([]int, size)
		sv.st = make([]int, size)
		sv.pa = make([]int, size)
		sv.s = make([]int8, size)
		sv.vis = make([]int, size)
		sv.fl = append(sv.fl, make([][]int, size-len(sv.fl))...)
	}
	if cap(sv.g) < size*size {
		sv.g = make([]edge, size*size)
	}
	sv.g = sv.g[:size*size]
	if cap(sv.ffrom) < n*(n+1) {
		sv.ffrom = make([]int, n*(n+1))
	}
	sv.ffrom = sv.ffrom[:n*(n+1)]
	sv.n, sv.nx, sv.stride = n, n, size
	for u := 0; u <= n; u++ {
		sv.st[u] = u
		sv.match[u] = 0
	}
	clear(sv.st[n+1 : size])
}

// load fills the vertex rows of g with the doubled complement weights
// 2·(wMax+1−w) and sets every vertex dual to its heaviest incident edge,
// which makes the duals feasible. It returns the shift wMax+1.
func (sv *Solver) load(weight func(i, j int) int64) (int64, error) {
	n, s := sv.n, sv.stride
	var wMax int64
	for i := 1; i <= n; i++ {
		sv.g[i*s+i] = edge{}
		for j := i + 1; j <= n; j++ {
			w := weight(i-1, j-1)
			if w < 0 || w > MaxWeight {
				return 0, errWeight(w, i-1, j-1)
			}
			sv.g[i*s+j].w = w
			wMax = max(wMax, w)
		}
	}
	shift := wMax + 1
	clear(sv.lab[1 : n+1])
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			w := 2 * (shift - sv.g[i*s+j].w)
			sv.g[i*s+j] = edge{u: int32(i), v: int32(j), w: w}
			sv.g[j*s+i] = edge{u: int32(j), v: int32(i), w: w}
			sv.lab[i] = max(sv.lab[i], w)
			sv.lab[j] = max(sv.lab[j], w)
		}
	}
	return shift, nil
}

// warmStart lowers each free vertex's dual, in index order, until its
// tightest edge is tight, and matches that edge when the partner is still
// free (preferring a free partner among equally tight ones). Duals stay
// feasible and every matched edge is tight, so the blossom search resumes
// from a valid primal-dual pair. Weights and duals are all even here, so
// every S–S slack stays even and matching's delta/2 step is exact.
func (sv *Solver) warmStart() {
	n := sv.n
	for u := 1; u <= n; u++ {
		if sv.match[u] != 0 {
			continue
		}
		row := sv.g[u*sv.stride : u*sv.stride+n+1]
		best, bv := inf, 0
		for v := 1; v <= n; v++ {
			if v == u {
				continue
			}
			d := sv.eDelta(&row[v])
			if d < best || d == best && sv.match[bv] != 0 && sv.match[v] == 0 {
				best, bv = d, v
			}
		}
		sv.lab[u] -= best
		if sv.match[bv] == 0 {
			sv.match[u], sv.match[bv] = bv, u
		}
	}
}

// MinWeightPerfect computes a minimum-weight perfect matching of the
// complete graph on n vertices (0-based) with the given weight function,
// whose values must lie in [0, MaxWeight]. It returns mate (mate[i] = j)
// and the total weight. n must be even and positive. The returned mate
// slice is solver-owned scratch and is overwritten by the next
// MinWeightPerfect call on this Solver — copy it if it must outlive the
// call.
func (sv *Solver) MinWeightPerfect(n int, weight func(i, j int) int64) ([]int, int64, error) {
	if n <= 0 || n%2 != 0 {
		return nil, 0, errOrder(n)
	}
	sv.reset(n)
	shift, err := sv.load(weight)
	if err != nil {
		return nil, 0, err
	}
	sv.warmStart()
	for {
		more, err := sv.matching()
		if err != nil {
			return nil, 0, err
		}
		if !more {
			break
		}
	}

	if cap(sv.mate) < n {
		sv.mate = make([]int, n)
	}
	mate := sv.mate[:n]
	var total int64
	for i := 1; i <= n; i++ {
		m := sv.match[i]
		if m == 0 {
			return nil, 0, errUnmatched
		}
		mate[i-1] = m - 1
		if m > i {
			total += shift - sv.at(i, m).w/2
		}
	}
	for i := 0; i < n; i++ {
		if mate[mate[i]] != i {
			return nil, 0, errInconsistent
		}
	}
	return mate, total, nil
}

// MinWeightPerfect is a convenience wrapper using a throwaway solver.
func MinWeightPerfect(n int, weight func(i, j int) int64) ([]int, int64, error) {
	var sv Solver
	return sv.MinWeightPerfect(n, weight)
}
