package dem

// The extractor FromCircuit replaced, kept as the oracle its backward sweep
// is checked against: it propagates every noise slot's every Pauli outcome
// through the circuit one at a time with the forward frame simulator
// (circuit.RunInjected), which is quadratic in circuit size but
// transparently correct.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/circuit"
	"astrea/internal/surface"
)

// footprintKey builds a map key from a detector set and observable mask.
func footprintKey(dets []int, obs uint64) string {
	b := make([]byte, 0, len(dets)*4+8)
	for _, d := range dets {
		b = append(b, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	b = append(b, byte(obs), byte(obs>>8), byte(obs>>16), byte(obs>>24),
		byte(obs>>32), byte(obs>>40), byte(obs>>48), byte(obs>>56))
	return string(b)
}

// oracleFromCircuit extracts the detector error model of c. It returns an error
// if any mechanism flips more than two detectors (non-graphlike circuit) or
// flips an observable while flipping no detector (an undetectable logical
// error from a single fault, which would make decoding meaningless).
func oracleFromCircuit(c *circuit.Circuit) (*Model, error) {
	m := &Model{
		NumDetectors:   len(c.Detectors),
		NumObservables: len(c.Observables),
	}
	merged := make(map[string]int) // footprint -> index into m.Errors
	frame := c.NewFrame()
	det := bitvec.New(len(c.Detectors))
	var ones []int

	for _, slot := range c.Slots() {
		op := c.Instrs[slot.Instr].Op
		kinds, probs := kindsFor(op, slot.P)
		for ki, kind := range kinds {
			inj := circuit.Injection{Instr: slot.Instr, Target: slot.Target, Kind: kind}
			c.RunInjected([]circuit.Injection{inj}, frame)
			c.DetectorEvents(frame, det)
			obs := c.ObservableFlips(frame)
			ones = det.Ones(ones[:0])
			if len(ones) == 0 {
				if obs != 0 {
					return nil, fmt.Errorf("dem: mechanism %+v flips observable %#x with no detectors", inj, obs)
				}
				continue // harmless mechanism (e.g. Z error in a Z-memory run)
			}
			if len(ones) > 2 {
				return nil, fmt.Errorf("dem: mechanism %+v flips %d detectors (non-graphlike)", inj, len(ones))
			}
			key := footprintKey(ones, obs)
			if idx, ok := merged[key]; ok {
				q := m.Errors[idx].P
				pk := probs[ki]
				m.Errors[idx].P = q*(1-pk) + pk*(1-q)
				continue
			}
			merged[key] = len(m.Errors)
			m.Errors = append(m.Errors, Error{
				Detectors: append([]int(nil), ones...),
				ObsMask:   obs,
				P:         probs[ki],
			})
		}
	}

	// Two mechanisms with the same detector pair but different observable
	// masks would make the edge's correction ambiguous; reject loudly. The
	// check is quadratic-free via a second map keyed on detectors alone.
	seen := make(map[string]uint64, len(m.Errors))
	for _, e := range m.Errors {
		k := footprintKey(e.Detectors, 0)
		if prev, ok := seen[k]; ok && prev != e.ObsMask {
			return nil, fmt.Errorf("dem: detector set %v carries conflicting observable masks %#x and %#x",
				e.Detectors, prev, e.ObsMask)
		}
		seen[k] = e.ObsMask
	}

	sort.Slice(m.Errors, func(i, j int) bool {
		a, b := m.Errors[i].Detectors, m.Errors[j].Detectors
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		la, lb := last(a), last(b)
		return la < lb
	})
	for _, e := range m.Errors {
		if e.P > m.MaxP {
			m.MaxP = e.P
		}
	}
	return m, nil
}

// modelDiff describes the first difference between two extraction results,
// or returns "" if they are identical: the same error (by message), or
// models with the same mechanisms in the same order, bit-identical
// probabilities and the same MaxP.
func modelDiff(got *Model, gotErr error, want *Model, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, oracle error %v", gotErr, wantErr)
		}
		return ""
	}
	if got.NumDetectors != want.NumDetectors || got.NumObservables != want.NumObservables {
		return fmt.Sprintf("shape %d/%d, oracle %d/%d",
			got.NumDetectors, got.NumObservables, want.NumDetectors, want.NumObservables)
	}
	if len(got.Errors) != len(want.Errors) {
		return fmt.Sprintf("%d mechanisms, oracle %d", len(got.Errors), len(want.Errors))
	}
	for i, e := range got.Errors {
		w := want.Errors[i]
		if !slices.Equal(e.Detectors, w.Detectors) || e.ObsMask != w.ObsMask ||
			math.Float64bits(e.P) != math.Float64bits(w.P) {
			return fmt.Sprintf("mechanism %d = %v/%#x/%v, oracle %v/%#x/%v",
				i, e.Detectors, e.ObsMask, e.P, w.Detectors, w.ObsMask, w.P)
		}
	}
	if math.Float64bits(got.MaxP) != math.Float64bits(want.MaxP) {
		return fmt.Sprintf("MaxP %v, oracle %v", got.MaxP, want.MaxP)
	}
	return ""
}

func checkAgainstOracle(t *testing.T, cc *circuit.Circuit) {
	t.Helper()
	got, gotErr := FromCircuit(cc)
	want, wantErr := oracleFromCircuit(cc)
	if d := modelDiff(got, gotErr, want, wantErr); d != "" {
		t.Fatal(d)
	}
}

// The sweep must build exactly the oracle's model on every circuit family
// the repository decodes: both bases across distances, the stream window
// heights, and the non-uniform noise maps of the §8.2 studies.
func TestSweepMatchesOracle(t *testing.T) {
	const p = 1e-3
	type tc struct {
		name   string
		d      int
		basis  surface.Basis
		rounds int
		nm     func(code *surface.Code, rounds int) surface.NoiseMap
	}
	uniform := func(*surface.Code, int) surface.NoiseMap { return surface.Uniform(p) }
	var cases []tc
	for _, d := range []int{3, 5, 7, 9, 11} {
		for _, b := range []surface.Basis{surface.BasisZ, surface.BasisX} {
			cases = append(cases, tc{fmt.Sprintf("d=%d/%v", d, b), d, b, d, uniform})
		}
	}
	for _, r := range []int{15, 23, 31} {
		cases = append(cases, tc{fmt.Sprintf("d=5/rounds=%d", r), 5, surface.BasisZ, r, uniform})
	}
	cases = append(cases,
		// NonUniformStudy's map: every third data qubit hotter.
		tc{"d=5/scale", 5, surface.BasisZ, 5, func(code *surface.Code, _ int) surface.NoiseMap {
			scale := make([]float64, code.NumQubits())
			for i := range scale {
				scale[i] = 1
			}
			for q := 0; q < len(code.DataPos); q += 3 {
				scale[q] = 5
			}
			return surface.NoiseMap{Base: p, Scale: scale}
		}},
		// DriftStudy's map: p ramps linearly to 3p across the rounds.
		tc{"d=5/roundscale", 5, surface.BasisZ, 5, func(_ *surface.Code, rounds int) surface.NoiseMap {
			rs := make([]float64, rounds)
			for r := range rs {
				rs[r] = 1 + 2*float64(r)/float64(rounds-1)
			}
			return surface.NoiseMap{Base: p, RoundScale: rs}
		}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, err := surface.New(c.d)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := code.Memory(c.basis, c.rounds, c.nm(code, c.rounds))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, cc)
		})
	}
}

// Rejections must name the same first bad mechanism with the same message.
func TestSweepRejectsLikeOracle(t *testing.T) {
	undetectable := circuit.New(1)
	undetectable.XError(0.1, 0)
	undetectable.Observable(undetectable.Measure(0, 0))

	fanout := circuit.New(3)
	fanout.Depolarize1(0.1, 0)
	fanout.CNOT(0, 1, 0, 2)
	base := fanout.Measure(0, 0, 1, 2)
	for k := 0; k < 3; k++ {
		fanout.Detector(circuit.DetMeta{}, base+k)
	}

	// An X on qubit 0 reaches detectors 0 and 1; an X on qubit 2 reaches
	// them and the observable: one edge, two corrections.
	conflict := circuit.New(3)
	conflict.XError(0.1, 0, 2)
	conflict.CNOT(0, 1)
	conflict.CNOT(2, 0, 2, 1)
	m := conflict.Measure(0, 0, 1, 2)
	conflict.Detector(circuit.DetMeta{}, m)
	conflict.Detector(circuit.DetMeta{}, m+1)
	conflict.Observable(m + 2)

	for name, c := range map[string]*circuit.Circuit{
		"undetectable": undetectable, "non-graphlike": fanout, "conflict": conflict,
	} {
		t.Run(name, func(t *testing.T) {
			if err := c.Finalize(); err != nil {
				t.Fatal(err)
			}
			if _, err := FromCircuit(c); err == nil {
				t.Fatal("expected rejection")
			}
			checkAgainstOracle(t, c)
		})
	}
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzCircuit decodes an arbitrary byte string into a small finalized
// circuit over every instruction kind, with random detectors and
// observables over its measurement record.
func fuzzCircuit(data []byte) *circuit.Circuit {
	in := fuzzBytes(data)
	nq := 1 + in.next()%5
	c := circuit.New(nq)
	probs := []float64{0, 1e-3, 0.01, 0.1, 0.3}
	nMeas := 0
	for n := in.next() % 32; n > 0; n-- {
		op, p := in.next()%7, probs[in.next()%len(probs)]
		qs := make([]int, 1+in.next()%4)
		for j := range qs {
			qs[j] = in.next() % nq
		}
		switch op {
		case 0:
			c.H(qs...)
		case 1:
			if nq == 1 {
				continue
			}
			// Pairs may share qubits with each other, never within a pair.
			pairs := make([]int, 0, 2*len(qs))
			for _, q := range qs {
				pairs = append(pairs, q, (q+1+in.next()%(nq-1))%nq)
			}
			c.CNOT(pairs...)
		case 2:
			c.Measure(p, qs...)
			nMeas += len(qs)
		case 3:
			c.Reset(qs...)
		case 4:
			c.Depolarize1(p, qs...)
		case 5:
			c.XError(p, qs...)
		case 6:
			c.ZError(p, qs...)
		}
	}
	if nMeas > 0 {
		refs := func() []int {
			r := make([]int, 1+in.next()%3)
			for j := range r {
				r[j] = in.next() % nMeas
			}
			return r
		}
		for n := in.next() % 8; n > 0; n-- {
			c.Detector(circuit.DetMeta{}, refs()...)
		}
		for n := in.next() % 3; n > 0; n-- {
			c.Observable(refs()...)
		}
	}
	if err := c.Finalize(); err != nil {
		panic(err) // every reference above is in range
	}
	return c
}

// FuzzSweepVsOracle: on arbitrary small circuits, the sweep and the oracle
// must reject with the same message or build identical models.
func FuzzSweepVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 6, 4, 2, 0, 0, 1, 3, 1, 0, 1, 2, 1, 2, 0, 1, 2, 2, 3, 0, 1, 2, 3, 3, 1, 0, 1, 1, 1, 2})
	f.Add([]byte{4, 12, 1, 0, 3, 0, 1, 2, 3, 0, 1, 2, 4, 2, 1, 1, 3, 5, 1, 1, 2, 6, 2, 0, 0,
		2, 3, 3, 3, 2, 1, 0, 2, 1, 1, 0, 1, 3, 1, 2, 3, 0, 2, 2, 1, 2, 0, 3, 5, 0, 1, 1, 2, 3, 4, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, fuzzCircuit(data))
	})
}
