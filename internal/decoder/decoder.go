// Package decoder defines the interface shared by every syndrome decoder in
// this reproduction (software MWPM, Astrea, Astrea-G, Union-Find, LILLIPUT,
// Clique) along with the common result type used to score logical errors.
package decoder

import (
	"sync"

	"astrea/internal/bitvec"
)

// Boundary is the sentinel partner index used in Result.Pairs when a
// detector is matched to the lattice boundary.
const Boundary = -1

// Result is the outcome of decoding one syndrome vector.
type Result struct {
	// ObsPrediction is the decoder's predicted logical-observable flip mask:
	// the XOR over all matched chains of their observable parities. A shot
	// is a logical error when ObsPrediction differs from the sampled
	// observable flips.
	ObsPrediction uint64
	// Pairs is the matching: each entry is (detector, partner) with partner
	// == Boundary for boundary matches. May be nil for table-based decoders
	// that predict the observable directly. Pairs is owned by the caller and
	// remains valid after the instance is reused.
	Pairs [][2]int
	// Weight is the total matching weight in the decoder's own unit
	// (decades for float decoders, quantised units for hardware decoders).
	Weight float64
	// Cycles is the number of hardware clock cycles the decode consumed
	// under the decoder's timing model; zero for pure software decoders.
	Cycles int
	// Skipped reports that the decoder declined to decode this syndrome
	// (e.g. Astrea beyond Hamming weight 10) and returned the identity
	// correction.
	Skipped bool
	// RealTime reports whether this decode met the decoder's real-time
	// path; hierarchical decoders clear it when they fall back to software.
	RealTime bool
}

// Decoder decodes detector-event syndromes into logical corrections.
//
// Concurrency contract: unless an implementation opts in via the
// ConcurrencySafe capability below, Decode is stateful and NOT safe for
// concurrent use — create one instance per goroutine via its constructor.
// The immutable tables an instance reads (Global Weight Table, decoding
// graph) may be shared freely across instances; only the per-instance
// scratch state is goroutine-private. Serving pools (internal/server) rely
// on this split: one GWT per distance, one decoder per worker.
//
// Fault contract: Decode has no error return — a decoder that cannot
// proceed either returns the identity correction with Skipped set, or
// panics. The serving layer treats a panic as a poisoned instance: the
// request is answered with an internal-error frame, the instance is
// discarded rather than recycled into its pool (its scratch state is
// unknowable mid-panic), and the worker keeps serving.
type Decoder interface {
	// Name identifies the decoder in reports ("MWPM", "Astrea", …).
	Name() string
	// Decode decodes the syndrome (one bit per detector).
	Decode(syndrome bitvec.Vec) Result
}

// ConcurrencySafe is the optional capability a Decoder implements to
// declare that Decode may be called from multiple goroutines on the SAME
// instance. Absence of the interface — or ConcurrentSafe() == false — means
// callers must hold one instance per goroutine.
type ConcurrencySafe interface {
	ConcurrentSafe() bool
}

// IsConcurrentSafe reports whether d has declared its Decode method safe
// for concurrent use on a single instance. It is conservative: decoders
// that do not implement ConcurrencySafe are treated as unsafe.
func IsConcurrentSafe(d Decoder) bool {
	cs, ok := d.(ConcurrencySafe)
	return ok && cs.ConcurrentSafe()
}

// EngineNamer is the optional capability a Decoder implements to name the
// exact-matching engine behind it ("dense", "sparse"), so serving stats and
// load reports can attribute answers to an engine across rotations even
// when two engines share one decoder name.
type EngineNamer interface {
	EngineName() string
}

// EngineOf returns d's engine name, falling back to the decoder name for
// decoders that are their own engine.
func EngineOf(d Decoder) string {
	if en, ok := d.(EngineNamer); ok {
		return en.EngineName()
	}
	return d.Name()
}

// ObsDecoder is the optional capability of decoders (Astrea, Astrea-G) with
// an allocation-free entry point for callers that read only the observable
// prediction: DecodeObs agrees with Decode on every Result field except
// Pairs, which it may leave nil.
type ObsDecoder interface {
	DecodeObs(syndrome bitvec.Vec) Result
}

// Validate checks the structural sanity of a matching against the syndrome:
// every flagged detector appears exactly once, no unflagged detector
// appears. It returns false with a reason string on violation; decoders'
// tests use it as a universal invariant, and the benchmark runs it on every
// decode, so it allocates nothing once its scratch is warm.
func Validate(syndrome bitvec.Vec, r Result) (bool, string) {
	if r.Pairs == nil {
		return true, "" // table decoders carry no explicit matching
	}
	seen, _ := seenPool.Get().(*bitvec.Vec)
	if seen == nil || seen.Len() != syndrome.Len() {
		v := bitvec.New(syndrome.Len())
		seen = &v
	}
	ok, why := validate(syndrome, *seen, r.Pairs)
	seen.Reset()
	seenPool.Put(seen)
	return ok, why
}

// seenPool recycles Validate's scratch: one zeroed bit per detector.
var seenPool sync.Pool

// validate is Validate over a zeroed scratch of the syndrome's length. A
// matching that names only flagged detectors, each once, covers the
// syndrome exactly when it names as many as are flagged.
func validate(syndrome, seen bitvec.Vec, pairs [][2]int) (bool, string) {
	matched := 0
	for _, p := range pairs {
		for _, v := range p {
			if v == Boundary {
				continue
			}
			if v < 0 || v >= syndrome.Len() {
				return false, "pair index out of range"
			}
			if !syndrome.Get(v) {
				return false, "matched an unflagged detector"
			}
			if seen.Get(v) {
				return false, "detector matched twice"
			}
			seen.Set(v)
			matched++
		}
	}
	if matched != syndrome.PopCount() {
		return false, "flagged detector left unmatched"
	}
	return true, ""
}
