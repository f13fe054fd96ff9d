package dem

import (
	"fmt"
	"math"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/circuit"
	"astrea/internal/prng"
	"astrea/internal/surface"
)

func buildModel(t testing.TB, d int, p float64) (*surface.Code, *circuit.Circuit, *Model) {
	t.Helper()
	code, err := surface.New(d)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := code.MemoryZ(d, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromCircuit(cc)
	if err != nil {
		t.Fatal(err)
	}
	return code, cc, m
}

func TestExtractionSucceedsAcrossDistances(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		_, cc, m := buildModel(t, d, 1e-3)
		if m.NumDetectors != len(cc.Detectors) {
			t.Fatalf("d=%d: NumDetectors mismatch", d)
		}
		if len(m.Errors) == 0 {
			t.Fatalf("d=%d: empty model", d)
		}
		for _, e := range m.Errors {
			if len(e.Detectors) < 1 || len(e.Detectors) > 2 {
				t.Fatalf("d=%d: error with %d detectors", d, len(e.Detectors))
			}
			if e.P <= 0 || e.P >= 1 {
				t.Fatalf("d=%d: error probability %v out of range", d, e.P)
			}
			if len(e.Detectors) == 2 && e.Detectors[0] >= e.Detectors[1] {
				t.Fatalf("d=%d: unsorted detector pair %v", d, e.Detectors)
			}
		}
	}
}

// Every detector must be touched by at least one mechanism, and at least one
// mechanism must flip the observable (otherwise logical errors would be
// impossible).
func TestModelCoverage(t *testing.T) {
	_, _, m := buildModel(t, 5, 1e-3)
	covered := make([]bool, m.NumDetectors)
	obsSeen := false
	for _, e := range m.Errors {
		for _, d := range e.Detectors {
			covered[d] = true
		}
		if e.ObsMask != 0 {
			obsSeen = true
		}
	}
	for d, ok := range covered {
		if !ok {
			t.Fatalf("detector %d untouched by any mechanism", d)
		}
	}
	if !obsSeen {
		t.Fatal("no mechanism flips the observable")
	}
}

// Only boundary-adjacent mechanisms may flip the observable, and every
// observable-flipping mechanism with one detector must be a left/right
// boundary event. Weak form: observable flips must exist among 1-detector
// mechanisms (a logical X chain terminates at the boundary crossing the
// logical-Z column on one side).
func TestObservableFlipsAtBoundary(t *testing.T) {
	_, _, m := buildModel(t, 5, 1e-3)
	found := false
	for _, e := range m.Errors {
		if len(e.Detectors) == 1 && e.ObsMask != 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no boundary mechanism flips the observable")
	}
}

// Merged probabilities: a mechanism fired by k independent slots of
// probability q has merged probability = P(odd number fire). Check the
// aggregate: expected errors per shot <= total slot probability (merging
// only reduces the effective count), and the same order of magnitude.
func TestExpectedErrorsMagnitude(t *testing.T) {
	_, cc, m := buildModel(t, 5, 1e-3)
	slotTotal := cc.TotalSlotProbability()
	exp := m.ExpectedErrors()
	if exp <= 0 || exp > slotTotal {
		t.Fatalf("expected errors %v outside (0, %v]", exp, slotTotal)
	}
	// Z errors are invisible (about 1/3 of depolarizing outcomes), so the
	// visible fraction should be well below the slot total but not tiny.
	if exp < slotTotal/4 {
		t.Fatalf("expected errors %v suspiciously low vs slot total %v", exp, slotTotal)
	}
}

// The sampler must agree with full frame simulation: same detector-event
// rate and observable-flip rate within Monte Carlo error. (The two differ
// only in O(p²) treatment of exclusive vs independent depolarizing
// outcomes.)
func TestSamplerMatchesFrameSimulation(t *testing.T) {
	const p = 2e-3
	const shots = 60000
	_, cc, m := buildModel(t, 3, p)

	rngA := prng.New(101)
	fr := cc.NewFrame()
	detA := bitvec.New(m.NumDetectors)
	var buf []circuit.Injection
	sumA, obsA := 0, 0
	for i := 0; i < shots; i++ {
		buf = cc.SampleInjections(rngA, buf[:0])
		cc.RunInjected(buf, fr)
		cc.DetectorEvents(fr, detA)
		sumA += detA.PopCount()
		obsA += int(cc.ObservableFlips(fr) & 1)
	}

	rngB := prng.New(202)
	s := NewSampler(m)
	detB := bitvec.New(m.NumDetectors)
	sumB, obsB := 0, 0
	for i := 0; i < shots; i++ {
		obsB += int(s.Sample(rngB, detB) & 1)
		sumB += detB.PopCount()
	}

	rateA, rateB := float64(sumA)/shots, float64(sumB)/shots
	if math.Abs(rateA-rateB)/rateA > 0.05 {
		t.Fatalf("detector rates differ: frame %v vs dem %v", rateA, rateB)
	}
	oA, oB := float64(obsA)/shots, float64(obsB)/shots
	if math.Abs(oA-oB) > 0.01 {
		t.Fatalf("raw observable flip rates differ: frame %v vs dem %v", oA, oB)
	}
}

// Per-mechanism exactness: injecting each slot outcome individually must
// reproduce exactly the detector set recorded in the model.
func TestPerMechanismFootprints(t *testing.T) {
	_, cc, m := buildModel(t, 3, 1e-3)
	lookup := make(map[string]Error)
	for _, e := range m.Errors {
		lookup[footprintKey(e.Detectors, e.ObsMask)] = e
	}
	frame := cc.NewFrame()
	det := bitvec.New(m.NumDetectors)
	checked := 0
	for _, slot := range cc.Slots() {
		kinds, _ := kindsFor(cc.Instrs[slot.Instr].Op, slot.P)
		for _, k := range kinds {
			cc.RunInjected([]circuit.Injection{{Instr: slot.Instr, Target: slot.Target, Kind: k}}, frame)
			cc.DetectorEvents(frame, det)
			ones := det.Ones(nil)
			if len(ones) == 0 {
				continue
			}
			obs := cc.ObservableFlips(frame)
			if _, ok := lookup[footprintKey(ones, obs)]; !ok {
				t.Fatalf("mechanism %+v kind %v footprint %v/%#x missing from model", slot, k, ones, obs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no mechanisms checked")
	}
}

func TestSamplerEmptyModel(t *testing.T) {
	m := &Model{NumDetectors: 4}
	s := NewSampler(m)
	det := bitvec.New(4)
	if obs := s.Sample(prng.New(1), det); obs != 0 || det.Any() {
		t.Fatal("empty model produced events")
	}
}

func TestSamplerPanicsOnBadBuffer(t *testing.T) {
	_, _, m := buildModel(t, 3, 1e-3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSampler(m).Sample(prng.New(1), bitvec.New(1))
}

func TestUndetectableLogicalRejected(t *testing.T) {
	// A hand-built circuit where an error flips an observable with no
	// detector must be rejected.
	c := circuit.New(1)
	c.XError(0.1, 0)
	base := c.Measure(0, 0)
	c.Observable(base)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromCircuit(c); err == nil {
		t.Fatal("expected rejection of undetectable logical flip")
	}
}

func TestNonGraphlikeRejected(t *testing.T) {
	// One X error fanning out to three qubits via CNOTs, each with its own
	// detector -> 3 detectors from one mechanism.
	c := circuit.New(3)
	c.XError(0.1, 0)
	c.CNOT(0, 1, 0, 2)
	base := c.Measure(0, 0, 1, 2)
	c.Detector(circuit.DetMeta{}, base)
	c.Detector(circuit.DetMeta{}, base+1)
	c.Detector(circuit.DetMeta{}, base+2)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromCircuit(c); err == nil {
		t.Fatal("expected rejection of non-graphlike mechanism")
	}
}

func TestEdgeCount(t *testing.T) {
	_, _, m := buildModel(t, 3, 1e-3)
	pairs, boundary := m.EdgeCount()
	if pairs == 0 || boundary == 0 {
		t.Fatalf("pairs=%d boundary=%d, want both nonzero", pairs, boundary)
	}
	if pairs+boundary != len(m.Errors) {
		t.Fatal("edge counts do not add up")
	}
}

func BenchmarkSampleD7P3(b *testing.B) {
	_, _, m := buildModel(b, 7, 1e-3)
	s := NewSampler(m)
	rng := prng.New(1)
	det := bitvec.New(m.NumDetectors)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng, det)
	}
}

func BenchmarkExtract(b *testing.B) {
	for _, d := range []int{7, 13} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			code, _ := surface.New(d)
			cc, _ := code.MemoryZ(d, 1e-3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FromCircuit(cc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestExpectedDetectorFlips(t *testing.T) {
	code, err := surface.New(3)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := code.MemoryZ(3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromCircuit(cc)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, e := range m.Errors {
		want += e.P * float64(len(e.Detectors))
	}
	if got := m.ExpectedDetectorFlips(); math.Abs(got-want) > 1e-12 || got <= 0 {
		t.Fatalf("ExpectedDetectorFlips = %v, want %v > 0", got, want)
	}
	// Empirical check: the mean sampled Hamming weight must sit at or just
	// below the analytic bound (cancellation only removes flips).
	rng := prng.New(7)
	smp := NewSampler(m)
	det := bitvec.New(m.NumDetectors)
	total := 0
	const shots = 20000
	for i := 0; i < shots; i++ {
		smp.Sample(rng, det)
		total += det.PopCount()
	}
	mean := float64(total) / shots
	if mean > want || mean < want*0.8 {
		t.Fatalf("sampled mean weight %v vs expected ≤ %v", mean, want)
	}
}
