package realtime

import (
	"math"
	"sync"

	"astrea/internal/hwmodel"
	"astrea/internal/leakcheck"
	"testing"

	"astrea/internal/astrea"
	"astrea/internal/bitvec"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/mwpm"
	"astrea/internal/prng"
)

// fixedSource returns scripted latencies.
type fixedSource struct {
	lat []float64
	i   int
}

func (f *fixedSource) Name() string { return "fixed" }
func (f *fixedSource) DecodeNs(bitvec.Vec) float64 {
	v := f.lat[f.i%len(f.lat)]
	f.i++
	return v
}

func feedN(n int) func(bitvec.Vec) bool {
	left := n
	return func(bitvec.Vec) bool {
		left--
		return left >= 0
	}
}

func TestAllFastIsAllOnTime(t *testing.T) {
	src := &fixedSource{lat: []float64{100}}
	res, err := Simulate(Config{WindowNs: 1000}, src, feedN(100), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnTime != 100 || res.MaxQueue != 0 || res.Diverged {
		t.Fatalf("fast stream result %+v", res)
	}
	if res.MeanServiceNs != 100 {
		t.Fatalf("mean service %v", res.MeanServiceNs)
	}
}

// A single slow decode delays followers: queueing must be modelled.
func TestQueueingDelaysFollowers(t *testing.T) {
	src := &fixedSource{lat: []float64{5000, 100, 100, 100, 100, 100, 100}}
	res, err := Simulate(Config{WindowNs: 1000}, src, feedN(7), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Shot 0 finishes at 5000 (late); shot 1 arrives at 1000 but starts at
	// 5000, finishes 5100 (late, sojourn 4100); shot 4 arrives 4000,
	// starts 5300? ... eventually catches up.
	if res.OnTime >= 6 {
		t.Fatalf("queueing not propagated: %+v", res)
	}
	if res.MaxQueue < 3 {
		t.Fatalf("max queue %d, want >= 3", res.MaxQueue)
	}
}

// Sustained over-window service must diverge.
func TestDivergence(t *testing.T) {
	src := &fixedSource{lat: []float64{2000}}
	res, err := Simulate(Config{WindowNs: 1000, MaxBacklog: 50}, src, feedN(10000), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Fatalf("2x-over-budget stream did not diverge: %+v", res)
	}
	if res.Shots >= 10000 {
		t.Fatal("divergence did not abort the run")
	}
}

func TestRejectsBadLength(t *testing.T) {
	src := &fixedSource{lat: []float64{1}}
	if _, err := Simulate(Config{}, src, feedN(1), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// The headline contrast: Astrea's cycle model sustains the d=5 stream with
// 100% on-time decodes, while wall-clock software MWPM falls behind. Warm
// MWPM's mean decode of a nonzero syndrome is about 0.5 µs on a 2-core
// Xeon, inside the 1 µs window, but its tail is not: across 40 runs there
// its on-time fraction read 0.71–0.97 (0.03 on the cold first run), always
// below Astrea's 1.0.
func TestAstreaSustainsStreamSoftwareMWPMDoesNot(t *testing.T) {
	env, err := montecarlo.SharedEnv(5, 5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	makeFeed := func() func(bitvec.Vec) bool {
		rng := prng.New(4)
		smp := dem.NewSampler(env.Model)
		left := 3000
		return func(dst bitvec.Vec) bool {
			left--
			if left < 0 {
				return false
			}
			// Feed only nonzero syndromes: the interesting stress case
			// (zero syndromes are free for everyone).
			for {
				smp.Sample(rng, dst)
				if dst.Any() {
					return true
				}
			}
		}
	}

	ast, err := Simulate(Config{}, CycleSource{Decoder: astrea.New(env.GWT)},
		makeFeed(), env.Model.NumDetectors)
	if err != nil {
		t.Fatal(err)
	}
	if ast.OnTimeFraction() < 0.999 || ast.Diverged {
		t.Fatalf("Astrea failed to sustain the stream: %+v", ast)
	}

	sw, err := Simulate(Config{MaxBacklog: 200}, WallClockSource{Decoder: mwpm.New(env.GWT)},
		makeFeed(), env.Model.NumDetectors)
	if err != nil {
		t.Fatal(err)
	}
	if sw.OnTimeFraction() >= ast.OnTimeFraction() {
		t.Fatalf("software (%v) not worse than Astrea (%v)", sw.OnTimeFraction(), ast.OnTimeFraction())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.MaxNs(); got != 1000 {
		t.Fatalf("max %v", got)
	}
	if mean := h.MeanNs(); mean < 400 || mean > 600 {
		t.Fatalf("mean %v far from 500.5", mean)
	}
	// Log2 buckets have factor-of-two resolution: the median of 1..1000 is
	// ~500, whose bucket spans [256, 512).
	if q := h.Quantile(0.5); q < 256 || q >= 1024 {
		t.Fatalf("p50 %v outside the expected bucket range", q)
	}
	if q := h.Quantile(1); q < 512 {
		t.Fatalf("p100 %v below the top occupied bucket", q)
	}
	uppers, counts := h.Buckets()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 1000 || len(uppers) != len(counts) {
		t.Fatalf("bucket snapshot inconsistent: %v %v", uppers, counts)
	}
}

// TestHistogramExtremeSamples checks that pathological inputs (NaN, ±Inf,
// values at and beyond 2^63 ns) are clamped rather than panicking on an
// out-of-range bucket index.
func TestHistogramExtremeSamples(t *testing.T) {
	h := NewHistogram()
	for _, ns := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -1,
		math.MaxFloat64, float64(math.MaxInt64), float64(math.MaxInt64) * 2,
	} {
		h.Add(ns)
	}
	if h.Count() != 7 {
		t.Fatalf("count %d, want 7", h.Count())
	}
	if got := h.MaxNs(); got != math.MaxInt64 {
		t.Fatalf("max %v, want clamp to MaxInt64", got)
	}
	uppers, counts := h.Buckets()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 7 {
		t.Fatalf("bucket snapshot holds %d samples, want 7 (%v %v)", total, uppers, counts)
	}
}

func TestHistogramConcurrentAdd(t *testing.T) {
	leakcheck.Check(t)
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Add(float64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("lost samples: %d", h.Count())
	}
}

func TestTrackerMirrorsSimulateCriterion(t *testing.T) {
	tr := NewTracker(0)
	if tr.BudgetNs != hwmodel.RealTimeBudgetNs {
		t.Fatalf("default budget %v", tr.BudgetNs)
	}
	// Exactly the Simulate rule: sojourn <= window is on time.
	if !tr.Observe(hwmodel.RealTimeBudgetNs) {
		t.Fatal("sojourn == budget must be on time")
	}
	if tr.Observe(hwmodel.RealTimeBudgetNs + 1) {
		t.Fatal("sojourn > budget must miss")
	}
	if tr.ObserveBudget(5000, 10_000) != true {
		t.Fatal("per-request budget not honoured")
	}
	if got := tr.MissRate(); got < 0.33 || got > 0.34 {
		t.Fatalf("miss rate %v, want 1/3", got)
	}
	if tr.Total() != 3 || tr.OnTime() != 2 || tr.Hist().Count() != 3 {
		t.Fatalf("counts %d/%d/%d", tr.Total(), tr.OnTime(), tr.Hist().Count())
	}
}
