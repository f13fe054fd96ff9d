package circuit

import (
	"math"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/prng"
)

// buildBellPairCircuit: H 0; CNOT 0,1; M 0 1 with a depolarizing slot on
// qubit 0 before the H.
func buildBellPairCircuit(p float64) *Circuit {
	c := New(2)
	c.Depolarize1(p, 0)
	c.H(0)
	c.CNOT(0, 1)
	c.Measure(0, 0, 1)
	if err := c.Finalize(); err != nil {
		panic(err)
	}
	return c
}

func TestFinalizeCountsMeasurements(t *testing.T) {
	c := New(3)
	c.Measure(0, 0)
	c.Measure(0, 1, 2)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if c.NumMeas != 3 {
		t.Fatalf("NumMeas = %d, want 3", c.NumMeas)
	}
	if got := c.MeasIndex(1, 1); got != 2 {
		t.Fatalf("MeasIndex(1,1) = %d, want 2", got)
	}
}

func TestFinalizeRejectsBadDetector(t *testing.T) {
	c := New(1)
	c.Measure(0, 0)
	c.Detector(DetMeta{}, 5)
	if err := c.Finalize(); err == nil {
		t.Fatal("expected error for out-of-range detector reference")
	}
}

func TestFinalizeRejectsBadObservable(t *testing.T) {
	c := New(1)
	c.Measure(0, 0)
	c.Observable(3)
	if err := c.Finalize(); err == nil {
		t.Fatal("expected error for out-of-range observable reference")
	}
}

func TestAppendPanicsOnBadQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range qubit")
		}
	}()
	New(2).H(2)
}

// X before H becomes Z (invisible to Z measurement); Z before H becomes X
// (flips the measurement).
func TestHConjugation(t *testing.T) {
	c := New(1)
	c.Depolarize1(0.5, 0) // slot 0: injection site
	c.H(0)
	c.Measure(0, 0)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := c.NewFrame()

	c.RunInjected([]Injection{{Instr: 0, Target: 0, Kind: ErrX}}, f)
	if f.Meas.Get(0) {
		t.Fatal("X before H should not flip Z measurement")
	}
	c.RunInjected([]Injection{{Instr: 0, Target: 0, Kind: ErrZ}}, f)
	if !f.Meas.Get(0) {
		t.Fatal("Z before H should flip Z measurement")
	}
	c.RunInjected([]Injection{{Instr: 0, Target: 0, Kind: ErrY}}, f)
	if !f.Meas.Get(0) {
		t.Fatal("Y before H should flip Z measurement (Y -> Y under H)")
	}
}

// CNOT propagates X control->target and Z target->control.
func TestCNOTPropagation(t *testing.T) {
	c := New(2)
	c.Depolarize1(0.5, 0, 1)
	c.CNOT(0, 1)
	c.Measure(0, 0, 1)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := c.NewFrame()

	// X on control flips both measurements.
	c.RunInjected([]Injection{{Instr: 0, Target: 0, Kind: ErrX}}, f)
	if !f.Meas.Get(0) || !f.Meas.Get(1) {
		t.Fatalf("X on control: meas = %v %v, want true true", f.Meas.Get(0), f.Meas.Get(1))
	}
	// X on target flips only the target.
	c.RunInjected([]Injection{{Instr: 0, Target: 1, Kind: ErrX}}, f)
	if f.Meas.Get(0) || !f.Meas.Get(1) {
		t.Fatal("X on target should flip only target measurement")
	}
	// Z on target propagates to control but Z never flips Z measurements.
	c.RunInjected([]Injection{{Instr: 0, Target: 1, Kind: ErrZ}}, f)
	if f.Meas.Get(0) || f.Meas.Get(1) {
		t.Fatal("Z errors must not flip Z measurements")
	}
	if !f.Z.Get(0) || !f.Z.Get(1) {
		t.Fatal("Z on target should propagate to control through CNOT")
	}
}

func TestResetClearsFrame(t *testing.T) {
	c := New(1)
	c.Depolarize1(0.5, 0)
	c.Reset(0)
	c.Measure(0, 0)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := c.NewFrame()
	c.RunInjected([]Injection{{Instr: 0, Target: 0, Kind: ErrY}}, f)
	if f.Meas.Get(0) {
		t.Fatal("reset should clear errors before measurement")
	}
}

func TestMeasurementFlipInjection(t *testing.T) {
	c := New(1)
	c.Measure(0.5, 0)
	c.Measure(0.5, 0)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := c.NewFrame()
	// Flip the first record only: a readout error does not persist.
	c.RunInjected([]Injection{{Instr: 0, Target: 0, Kind: ErrFlip}}, f)
	if !f.Meas.Get(0) {
		t.Fatal("flip injection did not flip its record bit")
	}
	if f.Meas.Get(1) {
		t.Fatal("readout flip must not affect later measurements")
	}
}

func TestDetectorEventsAndObservables(t *testing.T) {
	c := New(2)
	c.Depolarize1(0.5, 0)
	c.Measure(0, 0, 1)                           // meas 0, 1
	c.Measure(0, 0)                              // meas 2
	c.Detector(DetMeta{Stab: 0, Round: 0}, 0, 2) // same qubit twice: X flips both -> detector quiet
	c.Detector(DetMeta{Stab: 1, Round: 0}, 1)
	c.Observable(0)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := c.NewFrame()
	c.RunInjected([]Injection{{Instr: 0, Target: 0, Kind: ErrX}}, f)
	det := bitvec.New(len(c.Detectors))
	c.DetectorEvents(f, det)
	if det.Get(0) {
		t.Fatal("detector 0 compares two flipped measurements and should stay quiet")
	}
	if det.Get(1) {
		t.Fatal("detector 1 watches untouched qubit 1")
	}
	if c.ObservableFlips(f) != 1 {
		t.Fatalf("observable mask = %b, want 1", c.ObservableFlips(f))
	}
}

func TestSampleInjectionsRate(t *testing.T) {
	const p = 0.01
	const shots = 200000
	c := New(4)
	c.Depolarize1(p, 0, 1, 2, 3)
	c.XError(p, 0, 1)
	c.Measure(p, 0, 1, 2, 3)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.Slots()), 10; got != want {
		t.Fatalf("slots = %d, want %d", got, want)
	}
	rng := prng.New(99)
	total := 0
	perSlot := make([]int, 10)
	var buf []Injection
	for s := 0; s < shots; s++ {
		buf = c.SampleInjections(rng, buf[:0])
		total += len(buf)
		for _, in := range buf {
			// Identify the slot index by scanning (small table).
			for si, sl := range c.Slots() {
				if sl.Instr == in.Instr && sl.Target == in.Target {
					perSlot[si]++
				}
			}
		}
	}
	mean := float64(total) / shots
	want := c.TotalSlotProbability()
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean injections per shot %v, want ~%v", mean, want)
	}
	for si, n := range perSlot {
		freq := float64(n) / shots
		if math.Abs(freq-p) > 0.002 {
			t.Fatalf("slot %d fired at %v, want ~%v", si, freq, p)
		}
	}
}

func TestSampleInjectionsKinds(t *testing.T) {
	c := New(1)
	c.Depolarize1(1.0, 0) // always fires
	c.Measure(0, 0)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	rng := prng.New(7)
	counts := map[ErrKind]int{}
	var buf []Injection
	for i := 0; i < 30000; i++ {
		buf = c.SampleInjections(rng, buf[:0])
		if len(buf) != 1 {
			t.Fatalf("expected exactly 1 injection, got %d", len(buf))
		}
		counts[buf[0].Kind]++
	}
	for _, k := range []ErrKind{ErrX, ErrY, ErrZ} {
		frac := float64(counts[k]) / 30000
		if math.Abs(frac-1.0/3.0) > 0.02 {
			t.Fatalf("kind %v frequency %v, want ~1/3", k, frac)
		}
	}
}

// Sampled shots must equal injecting the same slots individually and XORing
// measurement flips (linearity of frame propagation).
func TestShotLinearity(t *testing.T) {
	c := New(3)
	c.Depolarize1(0.3, 0, 1, 2)
	c.H(0)
	c.CNOT(0, 1, 1, 2)
	c.Depolarize1(0.3, 0, 1, 2)
	c.Measure(0.1, 0, 1, 2)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	rng := prng.New(1234)
	f := c.NewFrame()
	single := c.NewFrame()
	var buf []Injection
	for shot := 0; shot < 500; shot++ {
		buf = c.SampleInjections(rng, buf[:0])
		c.RunInjected(buf, f)
		want := bitvec.New(c.NumMeas)
		for _, in := range buf {
			c.RunInjected([]Injection{in}, single)
			want.XorWith(single.Meas)
		}
		if !f.Meas.Equal(want) {
			t.Fatalf("shot %d: joint propagation %v != xor of singles %v (inj %v)",
				shot, f.Meas, want, buf)
		}
	}
}

// The backward sweep must report, for every slot outcome, exactly what
// injecting that outcome alone produces, on a circuit whose CNOT pairs
// share qubits, which measures a qubit twice in one layer and which resets
// mid-circuit.
func TestSweepFootprintsMatchInjection(t *testing.T) {
	c := New(3)
	c.Depolarize1(0.1, 0, 1, 2)
	c.H(0)
	c.CNOT(0, 1, 1, 2, 2, 0)
	c.XError(0.1, 1)
	m0 := c.Measure(0.1, 0, 0, 2)
	c.ZError(0.1, 2)
	c.Reset(1)
	c.H(2)
	c.Depolarize1(0.1, 1, 2)
	c.CNOT(2, 1)
	m1 := c.Measure(0.1, 1, 2)
	c.Detector(DetMeta{}, m0, m1)
	c.Detector(DetMeta{}, m0+1, m0+2)
	c.Detector(DetMeta{}, m1+1)
	c.Observable(m0+2, m1)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	nd := len(c.Detectors)
	f := c.NewFrame()
	det := bitvec.New(nd)
	visits := 0
	c.SweepFootprints(func(slot int, kind ErrKind, fp bitvec.Vec) {
		visits++
		s := c.Slots()[slot]
		c.RunInjected([]Injection{{Instr: s.Instr, Target: s.Target, Kind: kind}}, f)
		c.DetectorEvents(f, det)
		obs := c.ObservableFlips(f)
		for d := 0; d < nd; d++ {
			if fp.Get(d) != det.Get(d) {
				t.Fatalf("slot %d %v: sweep footprint %v, injection detectors %v", slot, kind, fp, det)
			}
		}
		if fp.Get(nd) != (obs == 1) {
			t.Fatalf("slot %d %v: sweep footprint %v, injection observable %#x", slot, kind, fp, obs)
		}
	})
	// 3+2 depolarizing slots (3 outcomes each), one X, one Z, 5 readouts.
	if want := 5*3 + 1 + 1 + 5; visits != want {
		t.Fatalf("sweep visited %d outcomes, want %d", visits, want)
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpH: "H", OpCNOT: "CNOT", OpM: "M", OpR: "R",
		OpDepolarize1: "DEPOLARIZE1", OpXError: "X_ERROR", OpZError: "Z_ERROR",
	} {
		if op.String() != want {
			t.Fatalf("Op %d String = %q, want %q", op, op.String(), want)
		}
	}
	for k, want := range map[ErrKind]string{ErrX: "X", ErrY: "Y", ErrZ: "Z", ErrFlip: "FLIP"} {
		if k.String() != want {
			t.Fatalf("kind String = %q, want %q", k.String(), want)
		}
	}
}

func TestBellCircuitSmoke(t *testing.T) {
	c := buildBellPairCircuit(0.1)
	rng := prng.New(5)
	f := c.NewFrame()
	var buf []Injection
	flips := 0
	const shots = 50000
	for i := 0; i < shots; i++ {
		buf = c.SampleInjections(rng, buf[:0])
		c.RunInjected(buf, f)
		// In a Bell-type frame, X on qubit 0 before H becomes Z (invisible);
		// Z becomes X and propagates to both; Y contributes its Z part -> X
		// on both too. So either both records flip or neither.
		if f.Meas.Get(0) != f.Meas.Get(1) {
			t.Fatal("bell frame flipped only one measurement")
		}
		if f.Meas.Get(0) {
			flips++
		}
	}
	// P(both flip) = P(slot fires) * P(kind in {Z, Y}) = 0.1 * 2/3.
	got := float64(flips) / shots
	want := 0.1 * 2.0 / 3.0
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("bell flip rate %v, want ~%v", got, want)
	}
}

func BenchmarkSampleAndRunSparse(b *testing.B) {
	// A circuit with many low-probability slots, as in real memory
	// experiments: cost should track hits, not slots.
	c := New(64)
	for r := 0; r < 20; r++ {
		qs := make([]int, 64)
		for i := range qs {
			qs[i] = i
		}
		c.Depolarize1(1e-4, qs...)
		c.CNOT(0, 1, 2, 3, 4, 5, 6, 7)
		c.Measure(1e-4, qs...)
	}
	if err := c.Finalize(); err != nil {
		b.Fatal(err)
	}
	rng := prng.New(1)
	f := c.NewFrame()
	var buf []Injection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.SampleInjections(rng, buf[:0])
		c.RunInjected(buf, f)
	}
}
