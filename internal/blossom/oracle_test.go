package blossom

// This file is the solver as it stood before the warm start — all duals
// equal, nothing matched, the max-weight early exit in place — kept
// verbatim with its identifiers renamed. It is the oracle the warm-started
// Solver is held to: equal totals always, equal mates wherever the optimum
// is unique.

import (
	"errors"
	"fmt"
)

const coldInf = int64(1) << 62

type coldEdge struct {
	u, v int
	w    int64
}

// coldSolver carries reusable buffers for repeated matchings. The zero value is
// ready to use; it is not safe for concurrent use.
type coldSolver struct {
	n, nx int
	g     [][]coldEdge
	lab   []int64
	match []int
	slack []int
	st    []int
	pa    []int
	ffrom [][]int
	s     []int8
	vis   []int
	fl    [][]int
	q     []int
	qh    int // q head index: popping by re-slicing would leak capacity
	t     int

	orig []int64 // MinWeightPerfect scratch: caller weights before shifting
	mate []int   // MinWeightPerfect scratch: the returned matching
}

func (sv *coldSolver) eDelta(e coldEdge) int64 {
	return sv.lab[e.u] + sv.lab[e.v] - sv.g[e.u][e.v].w*2
}

func (sv *coldSolver) updateSlack(u, x int) {
	if sv.slack[x] == 0 || sv.eDelta(sv.g[u][x]) < sv.eDelta(sv.g[sv.slack[x]][x]) {
		sv.slack[x] = u
	}
}

func (sv *coldSolver) setSlack(x int) {
	sv.slack[x] = 0
	for u := 1; u <= sv.n; u++ {
		if sv.g[u][x].w > 0 && sv.st[u] != x && sv.s[sv.st[u]] == 0 {
			sv.updateSlack(u, x)
		}
	}
}

func (sv *coldSolver) qPush(x int) {
	if x <= sv.n {
		sv.q = append(sv.q, x)
		return
	}
	for _, p := range sv.fl[x] {
		sv.qPush(p)
	}
}

func (sv *coldSolver) setSt(x, b int) {
	sv.st[x] = b
	if x > sv.n {
		for _, p := range sv.fl[x] {
			sv.setSt(p, b)
		}
	}
}

func (sv *coldSolver) getPr(b, xr int) int {
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
		for i, j := 1, len(f)-1; i < j; i, j = i+1, j-1 {
			f[i], f[j] = f[j], f[i]
		}
		return len(f) - pr
	}
	return pr
}

func (sv *coldSolver) setMatch(u, v int) {
	sv.match[u] = sv.g[u][v].v
	if u <= sv.n {
		return
	}
	e := sv.g[u][v]
	xr := sv.ffrom[u][e.u]
	pr := sv.getPr(u, xr)
	for i := 0; i < pr; i++ {
		sv.setMatch(sv.fl[u][i], sv.fl[u][i^1])
	}
	sv.setMatch(xr, v)
	f := sv.fl[u]
	rotated := append(append([]int(nil), f[pr:]...), f[:pr]...)
	copy(f, rotated)
}

func (sv *coldSolver) augment(u, v int) {
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

func (sv *coldSolver) getLca(u, v int) int {
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

func (sv *coldSolver) addBlossom(u, lca, v int) {
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
	// Reverse everything after the first element.
	f := sv.fl[b]
	for i, j := 1, len(f)-1; i < j; i, j = i+1, j-1 {
		f[i], f[j] = f[j], f[i]
	}
	for x := v; x != lca; {
		y := sv.st[sv.match[x]]
		sv.fl[b] = append(sv.fl[b], x, y)
		sv.qPush(y)
		x = sv.st[sv.pa[y]]
	}
	sv.setSt(b, b)
	for x := 1; x <= sv.nx; x++ {
		sv.g[b][x].w = 0
		sv.g[x][b].w = 0
	}
	for x := 1; x <= sv.n; x++ {
		sv.ffrom[b][x] = 0
	}
	for _, xs := range sv.fl[b] {
		for x := 1; x <= sv.nx; x++ {
			if sv.g[b][x].w == 0 || sv.eDelta(sv.g[xs][x]) < sv.eDelta(sv.g[b][x]) {
				sv.g[b][x] = sv.g[xs][x]
				sv.g[x][b] = sv.g[x][xs]
			}
		}
		for x := 1; x <= sv.n; x++ {
			if sv.ffrom[xs][x] != 0 {
				sv.ffrom[b][x] = xs
			}
		}
	}
	sv.setSlack(b)
}

func (sv *coldSolver) expandBlossom(b int) {
	for _, p := range sv.fl[b] {
		sv.setSt(p, p)
	}
	xr := sv.ffrom[b][sv.g[b][sv.pa[b]].u]
	pr := sv.getPr(b, xr)
	for i := 0; i < pr; i += 2 {
		xs := sv.fl[b][i]
		xns := sv.fl[b][i+1]
		sv.pa[xs] = sv.g[xns][xs].u
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

func (sv *coldSolver) onFoundEdge(e coldEdge) bool {
	u, v := sv.st[e.u], sv.st[e.v]
	switch sv.s[v] {
	case -1:
		sv.pa[v] = e.u
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

func (sv *coldSolver) matching() bool {
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
		return false
	}
	for {
		for sv.qh < len(sv.q) {
			u := sv.q[sv.qh]
			sv.qh++
			if sv.s[sv.st[u]] == 1 {
				continue
			}
			for v := 1; v <= sv.n; v++ {
				if sv.g[u][v].w > 0 && sv.st[u] != sv.st[v] {
					if sv.eDelta(sv.g[u][v]) == 0 {
						if sv.onFoundEdge(sv.g[u][v]) {
							return true
						}
					} else {
						sv.updateSlack(u, sv.st[v])
					}
				}
			}
		}
		d := coldInf
		for b := sv.n + 1; b <= sv.nx; b++ {
			if sv.st[b] == b && sv.s[b] == 1 {
				if half := sv.lab[b] / 2; half < d {
					d = half
				}
			}
		}
		for x := 1; x <= sv.nx; x++ {
			if sv.st[x] == x && sv.slack[x] != 0 {
				delta := sv.eDelta(sv.g[sv.slack[x]][x])
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
		for u := 1; u <= sv.n; u++ {
			switch sv.s[sv.st[u]] {
			case 0:
				if sv.lab[u] <= d {
					return false
				}
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
			if sv.st[x] == x && sv.slack[x] != 0 && sv.st[sv.slack[x]] != x &&
				sv.eDelta(sv.g[sv.slack[x]][x]) == 0 {
				if sv.onFoundEdge(sv.g[sv.slack[x]][x]) {
					return true
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

func (sv *coldSolver) reset(n int) {
	cap2 := 2*n + 1
	if len(sv.g) < cap2 {
		sv.g = make([][]coldEdge, cap2)
		for i := range sv.g {
			sv.g[i] = make([]coldEdge, cap2)
		}
		sv.ffrom = make([][]int, cap2)
		for i := range sv.ffrom {
			sv.ffrom[i] = make([]int, cap2)
		}
		sv.lab = make([]int64, cap2)
		sv.match = make([]int, cap2)
		sv.slack = make([]int, cap2)
		sv.st = make([]int, cap2)
		sv.pa = make([]int, cap2)
		sv.s = make([]int8, cap2)
		sv.vis = make([]int, cap2)
		sv.fl = make([][]int, cap2)
	}
	sv.n = n
	sv.nx = n
	for u := 0; u < cap2; u++ {
		sv.st[u] = u
		if u <= n {
			sv.fl[u] = nil
		} else {
			sv.st[u] = 0
			sv.fl[u] = sv.fl[u][:0]
		}
		sv.match[u] = 0
		sv.vis[u] = 0
		sv.lab[u] = 0
		sv.pa[u] = 0
		sv.slack[u] = 0
		sv.s[u] = 0
	}
	sv.t = 0
}

// maxWeightMatching runs the core algorithm on the currently loaded graph.
func (sv *coldSolver) maxWeightMatching() {
	var wMax int64
	for u := 1; u <= sv.n; u++ {
		for v := 1; v <= sv.n; v++ {
			if u == v {
				sv.ffrom[u][v] = u
			} else {
				sv.ffrom[u][v] = 0
			}
			if sv.g[u][v].w > wMax {
				wMax = sv.g[u][v].w
			}
		}
	}
	for u := 1; u <= sv.n; u++ {
		sv.lab[u] = wMax
	}
	for sv.matching() {
	}
}

// MinWeightPerfect computes a minimum-weight perfect matching of the
// complete graph on n vertices (0-based) with the given non-negative weight
// function. It returns mate (mate[i] = j) and the total weight. n must be
// even and positive. The returned mate slice is solver-owned scratch and is
// overwritten by the next MinWeightPerfect call on this coldSolver — copy it if
// it must outlive the call.
func (sv *coldSolver) MinWeightPerfect(n int, weight func(i, j int) int64) ([]int, int64, error) {
	if n <= 0 || n%2 != 0 {
		return nil, 0, fmt.Errorf("blossom: n must be positive and even, got %d", n)
	}
	sv.reset(n)
	var wMax int64
	if need := (n + 1) * (n + 1); cap(sv.orig) < need {
		sv.orig = make([]int64, need)
	} else {
		sv.orig = sv.orig[:need]
		for i := range sv.orig {
			sv.orig[i] = 0
		}
	}
	orig := sv.orig
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := weight(i, j)
			if w < 0 {
				return nil, 0, fmt.Errorf("blossom: negative weight %d at (%d,%d)", w, i, j)
			}
			orig[(i+1)*(n+1)+j+1] = w
			if w > wMax {
				wMax = w
			}
		}
	}
	shift := wMax + 1
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			sv.g[i][j] = coldEdge{u: i, v: j, w: 0}
		}
	}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			w := shift - orig[i*(n+1)+j]
			sv.g[i][j] = coldEdge{u: i, v: j, w: w}
			sv.g[j][i] = coldEdge{u: j, v: i, w: w}
		}
	}
	sv.maxWeightMatching()

	if cap(sv.mate) < n {
		sv.mate = make([]int, n)
	}
	mate := sv.mate[:n]
	var total int64
	for i := 1; i <= n; i++ {
		m := sv.match[i]
		if m == 0 {
			return nil, 0, errors.New("blossom: no perfect matching found (internal error on complete graph)")
		}
		mate[i-1] = m - 1
		if m > i {
			total += orig[i*(n+1)+m]
		}
	}
	for i := 0; i < n; i++ {
		if mate[mate[i]] != i {
			return nil, 0, errors.New("blossom: inconsistent matching (internal error)")
		}
	}
	return mate, total, nil
}
