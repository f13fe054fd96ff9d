package astrea

import (
	"math"

	"astrea/internal/decoder"
)

// The matching kernel, in the structure of the paper's hardware (Figures 7
// and 8): a weight array gathered once per syndrome, the HW6Decoder's fixed
// table of the 15 perfect matchings of six slots, and the pre-match loops
// that extend it to eight slots (7 table evaluations) and ten (9 × 7 = 63).
// Every level walks its alternatives in ascending slot order and keeps an
// incumbent only when strictly beaten, so the winner is the
// lexicographically first minimum-weight matching.

// hw6Matchings is the HW6Decoder's matching table: the 15 perfect matchings
// of positions {0..5}, each three pairs, in first-position-ascending order.
// hw6Rows restates each matching as three indices into the HW6 weight array,
// which holds the 15 position pairs a < b in lexicographic order.
var (
	hw6Matchings [15][3][2]uint8
	hw6Rows      [15][3]uint8
)

// hw4Matchings are the three perfect matchings of four slots: the tail of
// every HW6 table row, and the whole search at Hamming weights 3 and 4.
var hw4Matchings = [3][2][2]uint8{
	{{0, 1}, {2, 3}},
	{{0, 2}, {1, 3}},
	{{0, 3}, {1, 2}},
}

func init() {
	// Position 0 pre-matches each of 1..5; the four positions left over take
	// the three HW4 matchings.
	n := 0
	for p := uint8(1); p < 6; p++ {
		var rest [4]uint8
		without(rest[:], identity[:6], int(p))
		for _, m := range hw4Matchings {
			hw6Matchings[n] = [3][2]uint8{
				{0, p},
				{rest[m[0][0]], rest[m[0][1]]},
				{rest[m[1][0]], rest[m[1][1]]},
			}
			for i, pr := range hw6Matchings[n] {
				a, b := pr[0], pr[1]
				hw6Rows[n][i] = a*(11-a)/2 + b - a - 1
			}
			n++
		}
	}
}

var identity = [MaxHW]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// without copies src minus its first element and element j (the slots a
// pre-match just consumed) into dst, preserving ascending order.
func without(dst, src []uint8, j int) {
	copy(dst, src[1:j])
	copy(dst[j-1:], src[j+1:])
}

// wt is the gathered weight of pairing slots a < b. The array is indexed by
// one byte, a in the high nibble, so no access needs a bounds check.
func (d *Decoder) wt(a, b uint8) int32 { return d.w[a<<4|b] }

// solve gathers the pair weights of nodes and searches every perfect
// matching of the n slots (len(nodes) rounded up to even, which it returns),
// leaving the minimum total in d.best and the winning slot pairs in
// d.win[:n/2]. len(nodes) must be in 1..MaxHW.
func (d *Decoder) solve(nodes []int) int {
	k := len(nodes)
	n := k + k&1
	for a, i := range nodes {
		row := d.w[a<<4:][:MaxHW]
		for b := a + 1; b < k; b++ {
			row[b] = int32(d.gwt.Q(i, nodes[b]))
		}
		if n > k {
			row[k] = int32(d.gwt.Q(i, i))
		}
	}
	d.best = math.MaxInt32
	switch n {
	case 2:
		d.best, d.win[0] = d.wt(0, 1), [2]uint8{0, 1}
	case 4:
		for _, m := range hw4Matchings {
			if t := d.wt(m[0][0], m[0][1]) + d.wt(m[1][0], m[1][1]); t < d.best {
				d.best, d.win[0], d.win[1] = t, m[0], m[1]
			}
		}
	case 6:
		d.search6((*[6]uint8)(identity[:6]), 0, 0)
	case 8:
		d.search8((*[8]uint8)(identity[:8]), 0, d.bound(8), 0)
	default: // 10: slot 0 pre-matches each of 1..9 (Figure 8's outer loop)
		slack := d.bound(10)
		for j := uint8(1); j < 10; j++ {
			c := d.wt(0, j)
			rem := slack - d.near[0] - d.near[j]
			if 2*c+rem >= 2*d.best {
				continue
			}
			var rest [8]uint8
			without(rest[:], identity[:], int(j))
			if d.search8(&rest, c, rem, 1) {
				d.win[0] = [2]uint8{0, j}
			}
		}
	}
	return n
}

// bound prepares the pruning of the 8- and 10-slot searches. It seeds the
// incumbent with one more than the weight of the greedy matching (each
// lowest unmatched slot takes its nearest unmatched partner): an upper bound
// the true minimum is strictly below, so nothing that could win is cut. And
// it fills d.near with every slot's cheapest pairing and returns their sum:
// a pair costs at least the mean of its two slots' entries, so any perfect
// matching of a slot set costs at least half the set's sum — the levels
// skip an alternative when committed weight plus that cannot beat the
// incumbent. Both only skip matchings that would lose the strict
// comparison, so the winner is unchanged.
func (d *Decoder) bound(n int) (nearSum int32) {
	near := &d.near
	for a := range near {
		near[a] = math.MaxInt32
	}
	var used uint16
	d.best = 1
	for a := 0; a < n; a++ {
		row := d.w[a<<4:][:16]
		na, partner, free := near[a&15], 0, int32(math.MaxInt32)
		for b := a + 1; b < n; b++ {
			v := row[b&15]
			na = min(na, v)
			near[b&15] = min(near[b&15], v)
			if v < free && used>>b&1 == 0 {
				partner, free = b, v
			}
		}
		near[a&15] = na
		nearSum += na
		if used>>a&1 == 0 {
			used |= 1 << partner
			d.best += free
		}
	}
	return nearSum
}

// search8 is the pre-match step of Figure 7(b): the lowest of eight slots
// pairs with each of the other seven in turn, and the HW6 table resolves the
// six left over. base is the weight already committed above this level,
// slack the d.near sum of the eight slots, and lvl the position in d.win
// this level's pair takes. It reports whether the incumbent improved.
func (d *Decoder) search8(s *[8]uint8, base, slack int32, lvl int) bool {
	improved := false
	for j := 1; j < 8; j++ {
		c := base + d.wt(s[0], s[j])
		if 2*c+slack-d.near[s[0]&15]-d.near[s[j]&15] >= 2*d.best {
			continue
		}
		var rest [6]uint8
		without(rest[:], s[:], j)
		if d.search6(&rest, c, lvl+1) {
			d.win[lvl] = [2]uint8{s[0], s[j]}
			improved = true
		}
	}
	return improved
}

// search6 is the HW6Decoder block of Figure 7(a): load the 15 pair weights
// of six slots, sum the three pairs of each of the 15 table rows on top of
// base, and keep the first strict minimum.
func (d *Decoder) search6(s *[6]uint8, base int32, lvl int) bool {
	var p [16]int32
	i := 0
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 6; b++ {
			p[i&15] = d.wt(s[a], s[b])
			i++
		}
	}
	best, row := d.best, -1
	for r := range hw6Rows {
		m := &hw6Rows[r]
		if t := base + p[m[0]&15] + p[m[1]&15] + p[m[2]&15]; t < best {
			best, row = t, r
		}
	}
	if row < 0 {
		return false
	}
	d.best = best
	for i, pr := range hw6Matchings[row] {
		d.win[lvl+i] = [2]uint8{s[pr[0]], s[pr[1]]}
	}
	return true
}

// emit writes the winning matching into dst (one entry per pair of d.win) as
// detector pairs and returns its observable parity — the only reads of the
// GWT's observable table a decode makes.
func (d *Decoder) emit(nodes []int, dst [][2]int) uint64 {
	var obs uint64
	for i := range dst {
		a, b := int(d.win[i][0]), int(d.win[i][1])
		u := nodes[a]
		v, partner := u, decoder.Boundary // slot len(nodes): the virtual boundary bit
		if b < len(nodes) {
			v, partner = nodes[b], nodes[b]
		}
		dst[i] = [2]int{u, partner}
		obs ^= d.gwt.Obs(u, v)
	}
	return obs
}
