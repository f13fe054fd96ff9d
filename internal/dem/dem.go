// Package dem extracts a detector error model (DEM) from a noisy stabilizer
// circuit: the list of independent error mechanisms, each annotated with the
// set of detectors it flips and whether it flips each logical observable.
//
// This mirrors the role of Stim's detector error models in the paper's
// infrastructure. The DEM is consumed two ways:
//
//   - by internal/decodegraph, which turns the (detector-pair, probability)
//     list into the weighted decoding graph and the Global Weight Table;
//   - by the fast sampler in this package, which draws detector-event shots
//     directly from the merged mechanism list with geometric skipping, at a
//     cost proportional to the number of errors that fire rather than the
//     circuit size.
//
// Extraction walks the circuit once, last instruction to first, carrying for
// every qubit the detectors and observables an X or a Z error there would
// flip (circuit.SweepFootprints, the transpose of the frame simulator, as in
// Stim); every noise slot reads its outcomes' footprints as the walk passes
// it, so the cost is linear in circuit size. Mechanisms whose detector
// footprint is identical are then merged in forward slot order with
// XOR-probability combination p = p₁(1−p₂) + p₂(1−p₁), the standard
// independent-odd-firing rule.
package dem

import (
	"fmt"
	"sort"

	"astrea/internal/bitvec"
	"astrea/internal/circuit"
	"astrea/internal/prng"
)

// Error is one merged error mechanism of the model.
type Error struct {
	// Detectors lists the flipped detectors in ascending order. Length is 1
	// (a boundary-terminating mechanism) or 2 (a graph edge); the surface
	// code circuits built by internal/surface are verified to be graphlike.
	Detectors []int
	// ObsMask has bit k set if the mechanism flips logical observable k.
	ObsMask uint64
	// P is the merged firing probability.
	P float64
}

// Model is the detector error model of one circuit.
type Model struct {
	NumDetectors   int
	NumObservables int
	// Errors is sorted by detector footprint for determinism.
	Errors []Error
	// MaxP is the largest mechanism probability (used by the sampler's
	// rejection walk).
	MaxP float64
}

// mechKey identifies a mechanism by its footprint: the detectors it flips
// in ascending order (-1 where it flips fewer than two) and its observable
// mask.
type mechKey struct {
	a, b int32
	obs  uint64
}

// footprint is one slot outcome's effect, compacted from the sweep's bit
// row: how many detectors it flips, and the first two of them with the
// observables it flips.
type footprint struct {
	n int32
	mechKey
}

func (f footprint) detectors() []int {
	if f.n == 1 {
		return []int{int(f.a)}
	}
	return []int{int(f.a), int(f.b)}
}

// compact reads a sweep row laid out as nd detector bits then observable
// bits.
func compact(row bitvec.Vec, nd int) footprint {
	f := footprint{mechKey: mechKey{a: -1, b: -1}}
	for d := row.NextOne(0); d >= 0; d = row.NextOne(d + 1) {
		if d >= nd {
			f.obs |= 1 << uint(d-nd)
			continue
		}
		switch f.n {
		case 0:
			f.a = int32(d)
		case 1:
			f.b = int32(d)
		}
		f.n++
	}
	return f
}

// kindsFor returns the outcomes a slot can produce and their probabilities.
func kindsFor(op circuit.Op, p float64) ([]circuit.ErrKind, []float64) {
	switch op {
	case circuit.OpDepolarize1:
		return []circuit.ErrKind{circuit.ErrX, circuit.ErrY, circuit.ErrZ},
			[]float64{p / 3, p / 3, p / 3}
	case circuit.OpXError:
		return []circuit.ErrKind{circuit.ErrX}, []float64{p}
	case circuit.OpZError:
		return []circuit.ErrKind{circuit.ErrZ}, []float64{p}
	case circuit.OpM:
		return []circuit.ErrKind{circuit.ErrFlip}, []float64{p}
	case circuit.OpCNOT, circuit.OpH, circuit.OpR:
		// Gates carry no noise slots; Finalize never produces one.
	}
	return nil, nil
}

// FromCircuit extracts the detector error model of c. It returns an error
// if any mechanism flips more than two detectors (non-graphlike circuit) or
// flips an observable while flipping no detector (an undetectable logical
// error from a single fault, which would make decoding meaningless).
func FromCircuit(c *circuit.Circuit) (*Model, error) {
	m := &Model{
		NumDetectors:   len(c.Detectors),
		NumObservables: len(c.Observables),
	}
	if m.NumObservables > 64 {
		return nil, fmt.Errorf("dem: %d observables exceed the 64-bit mask", m.NumObservables)
	}
	slots := c.Slots()
	fps := make([][4]footprint, len(slots)) // indexed by slot, then ErrKind
	c.SweepFootprints(func(slot int, kind circuit.ErrKind, row bitvec.Vec) {
		fps[slot][kind] = compact(row, m.NumDetectors)
	})

	// Merge in forward slot order, so duplicate footprints combine their
	// probabilities in a fixed float order and the first bad mechanism
	// reported is the earliest one.
	merged := make(map[mechKey]int) // footprint -> index into m.Errors
	for si, slot := range slots {
		op := c.Instrs[slot.Instr].Op
		kinds, probs := kindsFor(op, slot.P)
		for ki, kind := range kinds {
			inj := circuit.Injection{Instr: slot.Instr, Target: slot.Target, Kind: kind}
			fp := fps[si][kind]
			obs := fp.obs
			if fp.n == 0 {
				if obs != 0 {
					return nil, fmt.Errorf("dem: mechanism %+v flips observable %#x with no detectors", inj, obs)
				}
				continue // harmless mechanism (e.g. Z error in a Z-memory run)
			}
			if fp.n > 2 {
				return nil, fmt.Errorf("dem: mechanism %+v flips %d detectors (non-graphlike)", inj, fp.n)
			}
			key := fp.mechKey
			if idx, ok := merged[key]; ok {
				q := m.Errors[idx].P
				pk := probs[ki]
				m.Errors[idx].P = q*(1-pk) + pk*(1-q)
				continue
			}
			merged[key] = len(m.Errors)
			m.Errors = append(m.Errors, Error{
				Detectors: fp.detectors(),
				ObsMask:   obs,
				P:         probs[ki],
			})
		}
	}

	// Two mechanisms with the same detector pair but different observable
	// masks would make the edge's correction ambiguous; reject loudly. The
	// check is quadratic-free via a second map keyed on detectors alone.
	seen := make(map[mechKey]uint64, len(m.Errors))
	for _, e := range m.Errors {
		k := mechKey{a: int32(e.Detectors[0]), b: int32(last(e.Detectors))}
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

func last(s []int) int { return s[len(s)-1] }

// Sampler draws detector-event shots directly from a model. It is not safe
// for concurrent use; create one per goroutine.
type Sampler struct {
	model *Model
}

// NewSampler returns a sampler over m.
func NewSampler(m *Model) *Sampler { return &Sampler{model: m} }

// Sample draws one shot: detector events are XORed into det (which is reset
// first and must have length NumDetectors); the return value is the
// observable flip mask. The walk uses geometric skipping at the model's
// maximum probability with per-landing acceptance p_i/p_max, so expected
// cost is O(Σ p_i / max p_i · overhead + hits).
func (s *Sampler) Sample(rng *prng.Source, det bitvec.Vec) uint64 {
	m := s.model
	if det.Len() != m.NumDetectors {
		panic("dem: detector buffer length mismatch")
	}
	det.Reset()
	var obs uint64
	if m.MaxP <= 0 {
		return 0
	}
	i := rng.Geometric(m.MaxP)
	for i < len(m.Errors) {
		e := &m.Errors[i]
		//lint:allow floateq exact-equality fast path comparing two stored (not computed) values; skipping the rng.Float64 draw here is load-bearing for the deterministic sample stream
		if e.P == m.MaxP || rng.Float64()*m.MaxP < e.P {
			for _, d := range e.Detectors {
				det.Flip(d)
			}
			obs ^= e.ObsMask
		}
		i += 1 + rng.Geometric(m.MaxP)
	}
	return obs
}

// ExpectedErrors returns Σ p_i, the mean number of mechanism firings per
// shot.
func (m *Model) ExpectedErrors() float64 {
	total := 0.0
	for _, e := range m.Errors {
		total += e.P
	}
	return total
}

// ExpectedDetectorFlips returns Σ p_i·|detectors_i|, the expected syndrome
// Hamming weight if no two firings cancelled. It slightly overestimates the
// true expectation (cancellation is rare at the paper's operating points),
// which is exactly the right bias for sizing the Golomb–Rice gap parameter
// of compress.NewRice.
func (m *Model) ExpectedDetectorFlips() float64 {
	total := 0.0
	for _, e := range m.Errors {
		total += e.P * float64(len(e.Detectors))
	}
	return total
}

// EdgeCount returns how many mechanisms are pair edges vs boundary edges.
func (m *Model) EdgeCount() (pairs, boundary int) {
	for _, e := range m.Errors {
		if len(e.Detectors) == 2 {
			pairs++
		} else {
			boundary++
		}
	}
	return pairs, boundary
}
