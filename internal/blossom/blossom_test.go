package blossom

import (
	"testing"

	"astrea/internal/prng"
)

// bruteForce enumerates every perfect matching recursively; exact reference
// for small n.
func bruteForce(n int, w func(i, j int) int64) int64 {
	used := make([]bool, n)
	var rec func() (int64, bool)
	rec = func() (int64, bool) {
		first := -1
		for i := 0; i < n; i++ {
			if !used[i] {
				first = i
				break
			}
		}
		if first == -1 {
			return 0, true
		}
		used[first] = true
		best := int64(0)
		found := false
		for j := first + 1; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			if sub, ok := rec(); ok {
				cand := sub + w(first, j)
				if !found || cand < best {
					best, found = cand, true
				}
			}
			used[j] = false
		}
		used[first] = false
		return best, found
	}
	v, _ := rec()
	return v
}

// dpMatch solves min-weight perfect matching by bitmask DP, workable to
// n = 18 or so.
func dpMatch(n int, w func(i, j int) int64) int64 {
	v, _ := dpOptimum(n, w)
	return v
}

func randomWeights(rng *prng.Source, n int, maxW int64) func(i, j int) int64 {
	w := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := int64(rng.Intn(int(maxW)))
			w[i*n+j] = v
			w[j*n+i] = v
		}
	}
	return func(i, j int) int64 { return w[i*n+j] }
}

func matchingWeight(mate []int, w func(i, j int) int64) int64 {
	var total int64
	for i, j := range mate {
		if j > i {
			total += w(i, j)
		}
	}
	return total
}

func TestRejectsOddOrNonPositive(t *testing.T) {
	for _, n := range []int{-2, 0, 1, 3, 7} {
		if _, _, err := MinWeightPerfect(n, func(i, j int) int64 { return 1 }); err == nil {
			t.Fatalf("n=%d accepted", n)
		}
	}
}

func TestRejectsNegativeWeights(t *testing.T) {
	if _, _, err := MinWeightPerfect(4, func(i, j int) int64 { return -1 }); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestTrivialPair(t *testing.T) {
	mate, total, err := MinWeightPerfect(2, func(i, j int) int64 { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	if mate[0] != 1 || mate[1] != 0 || total != 7 {
		t.Fatalf("mate=%v total=%d", mate, total)
	}
}

func TestFourNodeHandPicked(t *testing.T) {
	// Weights: (0,1)=1 (2,3)=1 vs (0,2)=10 (1,3)=10 vs (0,3)=10 (1,2)=10.
	w := map[[2]int]int64{
		{0, 1}: 1, {2, 3}: 1,
		{0, 2}: 10, {1, 3}: 10,
		{0, 3}: 10, {1, 2}: 10,
	}
	f := func(i, j int) int64 {
		if i > j {
			i, j = j, i
		}
		return w[[2]int{i, j}]
	}
	mate, total, err := MinWeightPerfect(4, f)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || mate[0] != 1 || mate[2] != 3 {
		t.Fatalf("mate=%v total=%d, want 0-1/2-3 at 2", mate, total)
	}
}

func TestAgainstBruteForceRandom(t *testing.T) {
	rng := prng.New(4242)
	var sv Solver
	for trial := 0; trial < 400; trial++ {
		n := 2 * (1 + rng.Intn(5)) // 2..10
		w := randomWeights(rng, n, 100)
		mate, total, err := sv.MinWeightPerfect(n, w)
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		if got := matchingWeight(mate, w); got != total {
			t.Fatalf("trial %d: reported total %d != recomputed %d", trial, total, got)
		}
		want := bruteForce(n, w)
		if total != want {
			t.Fatalf("trial %d n=%d: blossom %d, brute force %d", trial, n, total, want)
		}
	}
}

func TestAgainstDPMedium(t *testing.T) {
	rng := prng.New(777)
	var sv Solver
	for trial := 0; trial < 40; trial++ {
		n := 12 + 2*rng.Intn(3) // 12, 14, 16
		w := randomWeights(rng, n, 1000)
		_, total, err := sv.MinWeightPerfect(n, w)
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		want := dpMatch(n, w)
		if total != want {
			t.Fatalf("trial %d n=%d: blossom %d, dp %d", trial, n, total, want)
		}
	}
}

// Small weight ranges force massive degeneracy and many blossoms.
func TestDegenerateWeights(t *testing.T) {
	rng := prng.New(31337)
	var sv Solver
	for trial := 0; trial < 300; trial++ {
		n := 2 * (1 + rng.Intn(5))
		w := randomWeights(rng, n, 3) // weights in {0,1,2}
		_, total, err := sv.MinWeightPerfect(n, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := bruteForce(n, w); total != want {
			t.Fatalf("trial %d n=%d: blossom %d, brute force %d", trial, n, total, want)
		}
	}
}

func TestAllEqualWeights(t *testing.T) {
	for _, n := range []int{2, 4, 8, 12, 20} {
		mate, total, err := MinWeightPerfect(n, func(i, j int) int64 { return 5 })
		if err != nil {
			t.Fatal(err)
		}
		if total != int64(n/2*5) {
			t.Fatalf("n=%d: total %d, want %d", n, total, n/2*5)
		}
		for i, j := range mate {
			if mate[j] != i || j == i {
				t.Fatalf("n=%d: invalid matching %v", n, mate)
			}
		}
	}
}

func TestZeroWeights(t *testing.T) {
	_, total, err := MinWeightPerfect(6, func(i, j int) int64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Fatalf("total = %d, want 0", total)
	}
}

func TestLargeScaleWeights(t *testing.T) {
	// Fixed-point scaled weights as used by the MWPM decoder (2^16 scale).
	rng := prng.New(99)
	var sv Solver
	for trial := 0; trial < 50; trial++ {
		n := 2 * (1 + rng.Intn(5))
		w := randomWeights(rng, n, 1<<24)
		_, total, err := sv.MinWeightPerfect(n, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(n, w); total != want {
			t.Fatalf("trial %d n=%d: blossom %d, brute %d", trial, n, total, want)
		}
	}
}

// Solver reuse must not leak state across calls of different sizes.
func TestSolverReuseAcrossSizes(t *testing.T) {
	rng := prng.New(2024)
	var sv Solver
	sizes := []int{10, 2, 16, 4, 12, 8, 6, 14}
	for trial, n := range sizes {
		w := randomWeights(rng, n, 50)
		_, total, err := sv.MinWeightPerfect(n, w)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		if n <= 10 {
			want = bruteForce(n, w)
		} else {
			want = dpMatch(n, w)
		}
		if total != want {
			t.Fatalf("reuse trial %d n=%d: %d want %d", trial, n, total, want)
		}
	}
}

// Triangle-heavy metric weights (like decoding graphs) with larger n: check
// only validity and local optimality (2-opt: no pair swap improves), since
// exact references are too slow.
func TestMetricWeightsTwoOpt(t *testing.T) {
	rng := prng.New(555)
	var sv Solver
	for trial := 0; trial < 20; trial++ {
		n := 20 + 2*rng.Intn(11) // 20..40
		// Random points on a line; weight = |xi - xj| (a metric).
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(1000))
		}
		w := func(i, j int) int64 {
			d := xs[i] - xs[j]
			if d < 0 {
				d = -d
			}
			return d
		}
		mate, total, err := sv.MinWeightPerfect(n, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := matchingWeight(mate, w); got != total {
			t.Fatalf("total mismatch: %d vs %d", got, total)
		}
		// 2-opt check.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				ma, mb := mate[a], mate[b]
				if ma == b || mb == a || ma == mb {
					continue
				}
				cur := w(a, ma) + w(b, mb)
				if w(a, b)+w(ma, mb) < cur || w(a, mb)+w(b, ma) < cur {
					t.Fatalf("2-opt improvement exists at (%d,%d)", a, b)
				}
			}
		}
	}
}

func BenchmarkBlossomN20(b *testing.B) {
	rng := prng.New(1)
	w := randomWeights(rng, 20, 1<<20)
	var sv Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.MinWeightPerfect(20, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlossomN40(b *testing.B) {
	rng := prng.New(2)
	w := randomWeights(rng, 40, 1<<20)
	var sv Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.MinWeightPerfect(40, w); err != nil {
			b.Fatal(err)
		}
	}
}
