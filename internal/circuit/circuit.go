// Package circuit provides a stabilizer-circuit intermediate representation
// and a Pauli-frame simulator, the substrate this reproduction uses in place
// of Google's Stim framework.
//
// The circuits of interest (surface-code memory experiments) are fixed
// Clifford circuits with Pauli noise and Z-basis preparation, measurement and
// reset. For such circuits the distribution of detector events and logical
// observable flips is exactly captured by propagating Pauli *frames* —
// differences from the noiseless execution — which is orders of magnitude
// cheaper than state-vector or tableau simulation and is the same technique
// Stim uses for bulk sampling.
//
// A circuit is a flat list of instructions. Noise instructions declare "noise
// slots" (one per target); a sampled shot is a set of slot firings, which the
// frame simulator propagates deterministically. This factoring gives two
// consumers the same machinery:
//
//   - random sampling (Monte Carlo memory experiments),
//   - failure injection in tests.
//
// Detector error model extraction runs the same gate rules transposed: one
// backward sweep (SweepFootprints) yields every slot's single-fault
// footprint, which is what injecting each slot alone would produce.
package circuit

import (
	"fmt"
	"sort"

	"astrea/internal/bitvec"
	"astrea/internal/prng"
)

// Op identifies an instruction kind.
type Op uint8

// Instruction kinds. Gate operations are noiseless; noise enters only
// through the explicit noise instructions and the measurement flip
// probability, mirroring the paper's noise model (§3.2).
const (
	// OpH applies a Hadamard to each target qubit.
	OpH Op = iota
	// OpCNOT applies controlled-X to consecutive (control, target) pairs.
	OpCNOT
	// OpM measures each target qubit in the Z basis, appending one bit per
	// target to the measurement record. P is the probability that a recorded
	// bit is flipped (a classical readout error; it does not disturb the
	// qubit).
	OpM
	// OpR resets each target qubit to |0>.
	OpR
	// OpDepolarize1 applies an X, Y or Z error (probability P/3 each) to
	// each target qubit independently.
	OpDepolarize1
	// OpXError applies an X error to each target with probability P.
	OpXError
	// OpZError applies a Z error to each target with probability P.
	OpZError
)

func (o Op) String() string {
	switch o {
	case OpH:
		return "H"
	case OpCNOT:
		return "CNOT"
	case OpM:
		return "M"
	case OpR:
		return "R"
	case OpDepolarize1:
		return "DEPOLARIZE1"
	case OpXError:
		return "X_ERROR"
	case OpZError:
		return "Z_ERROR"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Instr is a single circuit instruction.
type Instr struct {
	Op      Op
	Targets []int
	// P is the error probability for noise instructions and the readout
	// flip probability for OpM. It is ignored for other gates.
	P float64
}

// ErrKind is the Pauli (or readout flip) outcome of a noise slot firing.
type ErrKind uint8

// Noise outcomes.
const (
	ErrX ErrKind = iota
	ErrY
	ErrZ
	ErrFlip // readout flip of a measurement record bit
)

func (k ErrKind) String() string {
	switch k {
	case ErrX:
		return "X"
	case ErrY:
		return "Y"
	case ErrZ:
		return "Z"
	case ErrFlip:
		return "FLIP"
	}
	return fmt.Sprintf("ErrKind(%d)", uint8(k))
}

// Injection describes one concrete error: outcome Kind at slot (Instr,
// Target). Target indexes into Instrs[Instr].Targets.
type Injection struct {
	Instr  int
	Target int
	Kind   ErrKind
}

// Slot identifies one independent noise location: a (instruction, target)
// pair that can fire. Depolarizing slots fire with probability P and then
// choose X, Y or Z uniformly; X/Z-error and measurement slots have a single
// outcome.
type Slot struct {
	Instr  int
	Target int
	P      float64
}

// DetMeta records where a detector lives, for reporting and for building the
// decoding graph's node coordinates.
type DetMeta struct {
	// Stab is the index of the stabilizer this detector compares, in the
	// code's stabilizer numbering.
	Stab int
	// Round is the syndrome-extraction round of the later measurement in the
	// comparison; the final data-measurement detector row has Round == d.
	Round int
}

// Circuit is an immutable instruction list plus detector and observable
// definitions. Build one with the Op* append helpers, then call Finalize.
type Circuit struct {
	NumQubits int
	Instrs    []Instr

	// NumMeas is the total number of measurement record bits; set by
	// Finalize.
	NumMeas int

	// Detectors lists, per detector, the absolute measurement-record indices
	// whose XOR forms the detector event.
	Detectors [][]int
	// DetMetas has one entry per detector.
	DetMetas []DetMeta
	// Observables lists, per logical observable, the measurement indices
	// whose XOR forms the observable value.
	Observables [][]int

	// slots is the flattened list of noise slots in execution order; set by
	// Finalize.
	slots []Slot
	// measBase[i] is the measurement-record index of the first bit produced
	// by instruction i (only meaningful for OpM); set by Finalize.
	measBase []int
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	return &Circuit{NumQubits: n}
}

// H appends a Hadamard layer.
func (c *Circuit) H(qubits ...int) { c.append(Instr{Op: OpH, Targets: qubits}) }

// CNOT appends controlled-X gates on consecutive (control, target) pairs.
func (c *Circuit) CNOT(pairs ...int) {
	if len(pairs)%2 != 0 {
		panic("circuit: CNOT needs (control, target) pairs")
	}
	c.append(Instr{Op: OpCNOT, Targets: pairs})
}

// Measure appends Z-basis measurements with readout flip probability p and
// returns the absolute record index of the first result.
func (c *Circuit) Measure(p float64, qubits ...int) int {
	base := c.countMeas()
	c.append(Instr{Op: OpM, Targets: qubits, P: p})
	return base
}

// Reset appends resets to |0>.
func (c *Circuit) Reset(qubits ...int) { c.append(Instr{Op: OpR, Targets: qubits}) }

// Depolarize1 appends single-qubit depolarizing noise of strength p.
func (c *Circuit) Depolarize1(p float64, qubits ...int) {
	c.append(Instr{Op: OpDepolarize1, Targets: qubits, P: p})
}

// XError appends X noise of probability p.
func (c *Circuit) XError(p float64, qubits ...int) {
	c.append(Instr{Op: OpXError, Targets: qubits, P: p})
}

// ZError appends Z noise of probability p.
func (c *Circuit) ZError(p float64, qubits ...int) {
	c.append(Instr{Op: OpZError, Targets: qubits, P: p})
}

// Detector declares a detector as the XOR of the given measurement indices.
func (c *Circuit) Detector(meta DetMeta, measIdx ...int) {
	c.Detectors = append(c.Detectors, measIdx)
	c.DetMetas = append(c.DetMetas, meta)
}

// Observable declares a logical observable as the XOR of the given
// measurement indices.
func (c *Circuit) Observable(measIdx ...int) {
	c.Observables = append(c.Observables, measIdx)
}

func (c *Circuit) append(in Instr) {
	for _, q := range in.Targets {
		if q < 0 || q >= c.NumQubits {
			panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
		}
	}
	c.Instrs = append(c.Instrs, in)
}

func (c *Circuit) countMeas() int {
	n := 0
	for _, in := range c.Instrs {
		if in.Op == OpM {
			n += len(in.Targets)
		}
	}
	return n
}

// Finalize computes measurement numbering and the noise-slot table and
// validates detector/observable references. It must be called once after
// construction and before simulation.
func (c *Circuit) Finalize() error {
	c.measBase = make([]int, len(c.Instrs))
	c.slots = c.slots[:0]
	n := 0
	for i, in := range c.Instrs {
		c.measBase[i] = n
		switch in.Op {
		case OpM:
			n += len(in.Targets)
			if in.P > 0 {
				for t := range in.Targets {
					c.slots = append(c.slots, Slot{Instr: i, Target: t, P: in.P})
				}
			}
		case OpDepolarize1, OpXError, OpZError:
			if in.P > 0 {
				for t := range in.Targets {
					c.slots = append(c.slots, Slot{Instr: i, Target: t, P: in.P})
				}
			}
		case OpCNOT, OpH, OpR:
			// Gates measure nothing and carry no noise slots.
		}
	}
	c.NumMeas = n
	for d, refs := range c.Detectors {
		for _, m := range refs {
			if m < 0 || m >= n {
				return fmt.Errorf("circuit: detector %d references measurement %d of %d", d, m, n)
			}
		}
	}
	for o, refs := range c.Observables {
		for _, m := range refs {
			if m < 0 || m >= n {
				return fmt.Errorf("circuit: observable %d references measurement %d of %d", o, m, n)
			}
		}
	}
	return nil
}

// Slots returns the circuit's noise slots in execution order. The returned
// slice is owned by the circuit; do not modify it.
func (c *Circuit) Slots() []Slot { return c.slots }

// MeasIndex returns the absolute measurement-record index produced by target
// t of instruction i (which must be an OpM).
func (c *Circuit) MeasIndex(i, t int) int {
	if c.Instrs[i].Op != OpM {
		panic("circuit: MeasIndex on non-measurement instruction")
	}
	return c.measBase[i] + t
}

// Frame holds the Pauli frame (per-qubit X and Z difference from the
// noiseless execution) and the measurement-record flips accumulated during a
// run. Reuse frames across shots via Reset to avoid allocation.
type Frame struct {
	X, Z bitvec.Vec
	Meas bitvec.Vec
}

// NewFrame returns a zeroed frame sized for the circuit.
func (c *Circuit) NewFrame() *Frame {
	return &Frame{
		X:    bitvec.New(c.NumQubits),
		Z:    bitvec.New(c.NumQubits),
		Meas: bitvec.New(c.NumMeas),
	}
}

// Reset zeroes the frame for reuse.
func (f *Frame) Reset() {
	f.X.Reset()
	f.Z.Reset()
	f.Meas.Reset()
}

// applyPauli folds a Pauli error into the frame.
func (f *Frame) applyPauli(q int, k ErrKind) {
	switch k {
	case ErrX:
		f.X.Flip(q)
	case ErrZ:
		f.Z.Flip(q)
	case ErrY:
		f.X.Flip(q)
		f.Z.Flip(q)
	default:
		panic("circuit: applyPauli with non-Pauli kind")
	}
}

// step advances the frame through gate instruction i (noise instructions are
// inert here; they fire through injections).
func (c *Circuit) step(i int, f *Frame) {
	in := &c.Instrs[i]
	switch in.Op {
	case OpH:
		for _, q := range in.Targets {
			x, z := f.X.Get(q), f.Z.Get(q)
			f.X.SetTo(q, z)
			f.Z.SetTo(q, x)
		}
	case OpCNOT:
		for j := 0; j < len(in.Targets); j += 2 {
			ctl, tgt := in.Targets[j], in.Targets[j+1]
			if f.X.Get(ctl) {
				f.X.Flip(tgt)
			}
			if f.Z.Get(tgt) {
				f.Z.Flip(ctl)
			}
		}
	case OpM:
		base := c.measBase[i]
		for j, q := range in.Targets {
			if f.X.Get(q) {
				f.Meas.Flip(base + j)
			}
		}
	case OpR:
		for _, q := range in.Targets {
			f.X.Clear(q)
			f.Z.Clear(q)
		}
	case OpDepolarize1, OpXError, OpZError:
		// Noise is injected externally.
	}
}

// sensitivity is the state of the backward sweep: X[q] (Z[q]) holds the
// detectors and observables an X (Z) error on qubit q would flip if it
// occurred at the sweep's current position, and Meas[m] those that read
// measurement-record bit m. Rows lay detectors out first, then observables.
type sensitivity struct {
	X, Z []bitvec.Vec
	Meas []bitvec.Vec
}

// stepBack moves the sweep from just after instruction i to just before it.
// It is the transpose of step: each rule pulls a row back through the gate
// that step pushes a frame bit forward through.
func (c *Circuit) stepBack(i int, s *sensitivity) {
	in := &c.Instrs[i]
	switch in.Op {
	case OpH:
		for _, q := range in.Targets {
			s.X[q], s.Z[q] = s.Z[q], s.X[q]
		}
	case OpCNOT:
		for j := len(in.Targets) - 2; j >= 0; j -= 2 {
			ctl, tgt := in.Targets[j], in.Targets[j+1]
			s.X[ctl].XorWith(s.X[tgt])
			s.Z[tgt].XorWith(s.Z[ctl])
		}
	case OpM:
		base := c.measBase[i]
		for j, q := range in.Targets {
			s.X[q].XorWith(s.Meas[base+j])
		}
	case OpR:
		for _, q := range in.Targets {
			s.X[q].Reset()
			s.Z[q].Reset()
		}
	case OpDepolarize1, OpXError, OpZError:
		// Noise acts on no frame.
	}
}

// SweepFootprints walks the circuit once, last instruction to first, and
// calls visit for every outcome of every noise slot with the outcome's
// footprint: bit d < len(c.Detectors) is set if the outcome flips detector
// d, bit len(c.Detectors)+k if it flips observable k. Slots are visited in
// reverse execution order. The footprint is the single-injection result of
// RunInjected read through Detectors and Observables; it is only valid
// during the call.
func (c *Circuit) SweepFootprints(visit func(slot int, kind ErrKind, footprint bitvec.Vec)) {
	nd := len(c.Detectors)
	width := nd + len(c.Observables)
	s := &sensitivity{
		X:    make([]bitvec.Vec, c.NumQubits),
		Z:    make([]bitvec.Vec, c.NumQubits),
		Meas: make([]bitvec.Vec, c.NumMeas),
	}
	for q := range s.X {
		s.X[q] = bitvec.New(width)
		s.Z[q] = bitvec.New(width)
	}
	for m := range s.Meas {
		s.Meas[m] = bitvec.New(width)
	}
	for d, refs := range c.Detectors {
		for _, m := range refs {
			s.Meas[m].Flip(d)
		}
	}
	for o, refs := range c.Observables {
		for _, m := range refs {
			s.Meas[m].Flip(nd + o)
		}
	}
	y := bitvec.New(width)
	k := len(c.slots) - 1
	for i := len(c.Instrs) - 1; i >= 0; i-- {
		// A slot reads its footprint before the sweep moves past its
		// instruction: Pauli noise lands before the instruction acts (a
		// no-op for noise instructions), and a readout flip's footprint is
		// its record bit's, wherever the sweep stands.
		for ; k >= 0 && c.slots[k].Instr == i; k-- {
			in := &c.Instrs[i]
			t := c.slots[k].Target
			q := in.Targets[t]
			switch in.Op {
			case OpDepolarize1:
				visit(k, ErrX, s.X[q])
				y.CopyFrom(s.X[q])
				y.XorWith(s.Z[q])
				visit(k, ErrY, y)
				visit(k, ErrZ, s.Z[q])
			case OpXError:
				visit(k, ErrX, s.X[q])
			case OpZError:
				visit(k, ErrZ, s.Z[q])
			case OpM:
				visit(k, ErrFlip, s.Meas[c.measBase[i]+t])
			case OpH, OpCNOT, OpR:
				// Finalize creates slots only for the ops above.
				panic(fmt.Sprintf("circuit: noise slot on gate op %v", in.Op))
			}
		}
		c.stepBack(i, s)
	}
}

// RunInjected resets the frame and propagates exactly the given injections
// (which must be sorted by instruction index; ties in any order). This is
// the deterministic engine behind sampled shots.
func (c *Circuit) RunInjected(inj []Injection, f *Frame) {
	f.Reset()
	if len(inj) == 0 {
		return
	}
	next := 0
	start := inj[0].Instr
	for i := start; i < len(c.Instrs); i++ {
		// Fire injections scheduled at instruction i. Measurement flips are
		// applied after the instruction executes (the record exists then);
		// Pauli noise instructions are pure noise markers, so ordering
		// within them is immaterial; for OpM the Pauli convention is
		// "before" (an X error present at measurement flips the result),
		// which callers encode by attaching the injection to a preceding
		// noise instruction.
		for next < len(inj) && inj[next].Instr == i {
			in := inj[next]
			instr := &c.Instrs[i]
			if in.Kind == ErrFlip {
				if instr.Op != OpM {
					panic("circuit: ErrFlip injection on non-measurement")
				}
				// Applied below, after the measurement executes.
			} else {
				f.applyPauli(instr.Targets[in.Target], in.Kind)
			}
			next++
		}
		// Rewind: Pauli injections must land before the instruction acts,
		// flips after. Handle by executing the instruction between the two
		// kinds: re-scan is avoided by noting that noise instructions are
		// no-ops in step() and flips commute with everything except their
		// own record bit.
		c.step(i, f)
		for j := next - 1; j >= 0 && inj[j].Instr == i; j-- {
			if inj[j].Kind == ErrFlip {
				f.Meas.Flip(c.measBase[i] + inj[j].Target)
			}
		}
	}
}

// SampleInjections draws a random shot's injections using geometric skipping
// over the noise-slot list, appending to dst. The expected cost is
// proportional to the number of errors that fire, not the circuit size.
func (c *Circuit) SampleInjections(rng *prng.Source, dst []Injection) []Injection {
	// Slots are grouped in runs of equal probability (each noise instruction
	// contributes a run), but geometric skipping requires a single uniform
	// probability. Walk runs of equal P.
	i := 0
	for i < len(c.slots) {
		p := c.slots[i].P
		j := i
		for j < len(c.slots) && c.slots[j].P == p {
			j++
		}
		k := i + rng.Geometric(p)
		for k < j {
			s := c.slots[k]
			kind := ErrFlip
			switch c.Instrs[s.Instr].Op {
			case OpDepolarize1:
				kind = ErrKind(rng.Intn(3)) // X, Y or Z uniformly
			case OpXError:
				kind = ErrX
			case OpZError:
				kind = ErrZ
			case OpM:
				kind = ErrFlip
			default:
				// Finalize creates slots only for the ops above.
				panic(fmt.Sprintf("circuit: noise slot on gate op %v", c.Instrs[s.Instr].Op))
			}
			dst = append(dst, Injection{Instr: s.Instr, Target: s.Target, Kind: kind})
			k += 1 + rng.Geometric(p)
		}
		i = j
	}
	return dst
}

// SampleKInjections draws a shot conditioned on exactly k noise slots
// firing, appending to dst. All slots in the paper's noise model share the
// same probability p, so conditioned on the count the fired set is uniform
// over slot subsets of size k; this is the sampler behind the Appendix A.1
// stratified logical-error-rate estimator (Equation 3). It panics if the
// circuit's slots do not all share one probability, or k exceeds the slot
// count.
func (c *Circuit) SampleKInjections(rng *prng.Source, k int, dst []Injection) []Injection {
	n := len(c.slots)
	if k > n {
		panic(fmt.Sprintf("circuit: k=%d exceeds %d slots", k, n))
	}
	for _, s := range c.slots {
		if s.P != c.slots[0].P {
			panic("circuit: SampleKInjections requires uniform slot probability")
		}
	}
	// Floyd's algorithm for a uniform k-subset of [0, n).
	chosen := make(map[int]bool, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t] {
			t = j
		}
		chosen[t] = true
	}
	idx := make([]int, 0, k)
	for i := range chosen {
		idx = append(idx, i)
	}
	sort.Ints(idx) // injections must be in execution order
	for _, si := range idx {
		s := c.slots[si]
		kind := ErrFlip
		switch c.Instrs[s.Instr].Op {
		case OpDepolarize1:
			kind = ErrKind(rng.Intn(3))
		case OpXError:
			kind = ErrX
		case OpZError:
			kind = ErrZ
		case OpM:
			kind = ErrFlip
		default:
			// Finalize creates slots only for the ops above.
			panic(fmt.Sprintf("circuit: noise slot on gate op %v", c.Instrs[s.Instr].Op))
		}
		dst = append(dst, Injection{Instr: s.Instr, Target: s.Target, Kind: kind})
	}
	return dst
}

// DetectorEvents XORs the frame's measurement flips into dst, one bit per
// detector. dst must have length len(c.Detectors).
func (c *Circuit) DetectorEvents(f *Frame, dst bitvec.Vec) {
	if dst.Len() != len(c.Detectors) {
		panic("circuit: detector buffer length mismatch")
	}
	dst.Reset()
	for d, refs := range c.Detectors {
		v := false
		for _, m := range refs {
			if f.Meas.Get(m) {
				v = !v
			}
		}
		dst.SetTo(d, v)
	}
}

// ObservableFlips returns a bitmask of logical observables flipped by the
// frame (bit k set means observable k flipped).
func (c *Circuit) ObservableFlips(f *Frame) uint64 {
	if len(c.Observables) > 64 {
		panic("circuit: more than 64 observables")
	}
	var mask uint64
	for o, refs := range c.Observables {
		v := false
		for _, m := range refs {
			if f.Meas.Get(m) {
				v = !v
			}
		}
		if v {
			mask |= 1 << uint(o)
		}
	}
	return mask
}

// TotalSlotProbability returns the sum of slot probabilities — the expected
// number of error events per shot. Useful for sanity checks and for scaling
// Monte Carlo budgets.
func (c *Circuit) TotalSlotProbability() float64 {
	total := 0.0
	for _, s := range c.slots {
		total += s.P
	}
	return total
}
