package blossom

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"astrea/internal/prng"
)

// dpOptimum returns the minimum perfect-matching weight by bitmask DP and
// whether exactly one perfect matching attains it. Workable to n = 16.
func dpOptimum(n int, w func(i, j int) int64) (int64, bool) {
	const unset = int64(1) << 62
	dp := make([]int64, 1<<uint(n))
	ways := make([]uint8, 1<<uint(n)) // optimal completions, saturating at 2
	for i := range dp {
		dp[i] = unset
	}
	dp[0], ways[0] = 0, 1
	for mask := 0; mask < 1<<uint(n); mask++ {
		if dp[mask] == unset || bits.OnesCount(uint(mask))%2 != 0 {
			continue
		}
		first := bits.TrailingZeros(^uint(mask))
		if first >= n {
			continue
		}
		for j := first + 1; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				continue
			}
			nm := mask | 1<<uint(first) | 1<<uint(j)
			switch c := dp[mask] + w(first, j); {
			case c < dp[nm]:
				dp[nm], ways[nm] = c, ways[mask]
			case c == dp[nm]:
				ways[nm] = min(2, ways[nm]+ways[mask])
			}
		}
	}
	full := 1<<uint(n) - 1
	return dp[full], ways[full] == 1
}

// weightTable is a symmetric weight matrix with a solver callback.
type weightTable struct {
	n int
	w []int64
}

func newWeightTable(n int, f func(i, j int) int64) *weightTable {
	t := &weightTable{n: n, w: make([]int64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := f(i, j)
			t.w[i*n+j], t.w[j*n+i] = v, v
		}
	}
	return t
}

func (t *weightTable) at(i, j int) int64 { return t.w[i*t.n+j] }

// checkWarmAgainstCold solves tab with both solvers and fails unless the
// warm matching is a valid perfect matching whose reported total equals
// both its recomputed weight and the cold total, and — when dpUnique says
// the optimum is unique — equals the cold mates too.
func checkWarmAgainstCold(t *testing.T, warm *Solver, cold *coldSolver, tab *weightTable, dpUnique bool, label string) {
	t.Helper()
	n := tab.n
	wm, wt, err := warm.MinWeightPerfect(n, tab.at)
	if err != nil {
		t.Fatalf("%s: warm: %v", label, err)
	}
	cm, ct, err := cold.MinWeightPerfect(n, tab.at)
	if err != nil {
		t.Fatalf("%s: cold: %v", label, err)
	}
	var recomputed int64
	for i, j := range wm {
		if j == i || wm[j] != i {
			t.Fatalf("%s: warm mates %v are not a perfect matching", label, wm)
		}
		if j > i {
			recomputed += tab.at(i, j)
		}
	}
	if recomputed != wt {
		t.Fatalf("%s: warm reported %d, its mates weigh %d", label, wt, recomputed)
	}
	if wt != ct {
		t.Fatalf("%s: warm total %d, cold total %d", label, wt, ct)
	}
	if dpUnique {
		for i := range wm {
			if wm[i] != cm[i] {
				t.Fatalf("%s: unique optimum, but warm mates %v != cold mates %v", label, wm, cm)
			}
		}
	}
}

// TestWarmMatchesCold holds the warm-started solver to the cold oracle on
// random complete graphs of every even order 2..40 across the weight
// profiles that stress the dual arithmetic: all-equal and all-zero
// (maximal degeneracy), two-valued, small-range, and 2⁴⁶-scale weights
// (the lifted decoder range). Totals must always agree; mates must agree
// wherever the DP oracle proves the optimum unique (n ≤ 16).
func TestWarmMatchesCold(t *testing.T) {
	rng := prng.New(6060)
	var warm Solver
	var cold coldSolver
	profiles := []struct {
		name string
		draw func() int64
	}{
		{"all-equal", func() int64 { return 9 }},
		{"zero", func() int64 { return 0 }},
		{"two-valued", func() int64 { return 5 * int64(rng.Intn(2)) }},
		{"small", func() int64 { return int64(rng.Intn(4)) }},
		{"wide", func() int64 { return int64(rng.Intn(1 << 20)) }},
		{"2^46", func() int64 { return int64(rng.Uint64() >> 18) }},
	}
	trials := 30
	if testing.Short() {
		trials = 3
	}
	for _, pr := range profiles {
		for n := 2; n <= 40; n += 2 {
			for trial := 0; trial < trials; trial++ {
				tab := newWeightTable(n, func(int, int) int64 { return pr.draw() })
				unique := false
				if n <= 16 {
					want, u := dpOptimum(n, tab.at)
					if _, got, err := warm.MinWeightPerfect(n, tab.at); err != nil || got != want {
						t.Fatalf("%s n=%d trial %d: warm %d (%v), DP %d", pr.name, n, trial, got, err, want)
					}
					unique = u
				}
				checkWarmAgainstCold(t, &warm, &cold, tab, unique, pr.name)
			}
		}
	}
}

// FuzzWarmVsCold feeds arbitrary weight matrices to both solvers. The mode
// byte picks the weight scale (raw bytes, two-valued, 2⁴⁶-scale, or near
// MaxWeight) so a corpus entry can reach both the degenerate and the
// overflow-adjacent regimes.
func FuzzWarmVsCold(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(3), uint8(1), []byte{1, 0, 1, 1, 0})
	f.Add(uint8(7), uint8(2), []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03})
	f.Add(uint8(19), uint8(3), []byte{0xff, 0x00, 0x80})
	f.Add(uint8(5), uint8(0), []byte{7, 7, 7, 7})

	var warm Solver
	var cold coldSolver
	f.Fuzz(func(t *testing.T, size, mode uint8, data []byte) {
		n := 2 * (1 + int(size)%20) // 2..40
		at := func(i, j int) uint64 {
			if len(data) == 0 {
				return 0
			}
			var buf [8]byte
			for b := range buf {
				buf[b] = data[((i*n+j)*8+b)%len(data)]
			}
			return binary.LittleEndian.Uint64(buf[:])
		}
		tab := newWeightTable(n, func(i, j int) int64 {
			v := at(i, j)
			switch mode % 4 {
			case 0:
				return int64(v & 0xff)
			case 1:
				return int64(v & 1)
			case 2:
				return int64(v >> 18)
			default: // both ends of the accepted range
				if v&1 == 0 {
					return int64(v >> 1 & 0xffff)
				}
				return MaxWeight - int64(v>>1&0xffff)
			}
		})
		unique := false
		if n <= 12 {
			want, u := dpOptimum(n, tab.at)
			if _, got, err := warm.MinWeightPerfect(n, tab.at); err != nil || got != want {
				t.Fatalf("n=%d: warm %d (%v), DP %d", n, got, err, want)
			}
			unique = u
		}
		checkWarmAgainstCold(t, &warm, &cold, tab, unique, "fuzz")
	})
}

// TestMaxWeightContract pins the overflow contract: weights up to
// MaxWeight solve exactly (checked against DP on graphs whose weights sit
// at both ends of the range, so the doubled complements span it too), and one past it is refused with an error
// rather than solved in wrapped arithmetic.
func TestMaxWeightContract(t *testing.T) {
	rng := prng.New(4646)
	var sv Solver
	for trial := 0; trial < 60; trial++ {
		n := 2 * (1 + rng.Intn(7))
		tab := newWeightTable(n, func(int, int) int64 {
			switch rng.Intn(3) {
			case 0:
				return int64(rng.Intn(1 << 20))
			case 1:
				return MaxWeight
			}
			return MaxWeight - int64(rng.Intn(1<<20))
		})
		want, _ := dpOptimum(n, tab.at)
		if _, got, err := sv.MinWeightPerfect(n, tab.at); err != nil || got != want {
			t.Fatalf("trial %d n=%d at MaxWeight: got %d (%v), DP %d", trial, n, got, err, want)
		}
	}
	for _, bad := range []int64{MaxWeight + 1, 1 << 62} {
		if _, _, err := sv.MinWeightPerfect(4, func(i, j int) int64 {
			if i == 1 && j == 2 {
				return bad
			}
			return 3
		}); err == nil {
			t.Fatalf("weight %d accepted", bad)
		}
	}
	// A refused call must leave the solver usable.
	if _, total, err := sv.MinWeightPerfect(4, func(i, j int) int64 { return int64(i + j) }); err != nil || total != 6 {
		t.Fatalf("after a refused call: total %d, %v", total, err)
	}
}
