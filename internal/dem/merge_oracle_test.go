package dem

// The map-based merge FromCircuit replaced, kept as the oracle its
// per-detector lists are checked against: the same backward sweep, then
// duplicate footprints merged through a map, masks checked through a
// second map and every mechanism sorted by footprint.

import (
	"fmt"
	"sort"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/circuit"
	"astrea/internal/surface"
)

// mechKey identifies a mechanism by its footprint: the detectors it flips
// in ascending order (-1 where it flips fewer than two) and its observable
// mask.
type mechKey struct {
	a, b int32
	obs  uint64
}

func last(s []int) int { return s[len(s)-1] }

// mapMergeFromCircuit extracts the detector error model of c with the
// map-based merge.
func mapMergeFromCircuit(c *circuit.Circuit) (*Model, error) {
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
			key := mechKey{a: fp.a, b: fp.b, obs: obs}
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

func checkAgainstMapMerge(t *testing.T, cc *circuit.Circuit) {
	t.Helper()
	got, gotErr := FromCircuit(cc)
	want, wantErr := mapMergeFromCircuit(cc)
	if d := modelDiff(got, gotErr, want, wantErr); d != "" {
		t.Fatal(d)
	}
}

// TestMergeMatchesMapMerge: the per-detector-list merge builds exactly the
// map-based merge's model — order, detectors, masks, probability bits and
// MaxP — at whole-shot (d rounds) and stream-window (6d−1 rounds) heights
// across distances and error rates, and under a non-uniform noise map.
func TestMergeMatchesMapMerge(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		code, err := surface.New(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, rounds := range []int{d, 6*d - 1} {
			for _, p := range []float64{1e-4, 1e-3, 3e-3, 1e-2} {
				t.Run(fmt.Sprintf("d=%d/rounds=%d/p=%g", d, rounds, p), func(t *testing.T) {
					cc, err := code.MemoryZ(rounds, p)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstMapMerge(t, cc)
				})
			}
		}
	}
	// examples/nonuniform's device: every third data qubit at 10p.
	t.Run("nonuniform", func(t *testing.T) {
		code, err := surface.New(5)
		if err != nil {
			t.Fatal(err)
		}
		scale := make([]float64, code.NumQubits())
		for i := range scale {
			scale[i] = 1
		}
		for q := 0; q < len(code.DataPos); q += 3 {
			scale[q] = 10
		}
		cc, err := code.Memory(surface.BasisZ, 5, surface.NoiseMap{Base: 1e-3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstMapMerge(t, cc)
	})
}
