package decodegraph

import (
	"encoding/binary"
	"fmt"
	"math"

	"astrea/internal/dem"
)

// Fingerprint is a stable 64-bit digest of one decoding configuration: the
// detector error model's mechanisms (detector footprints, observable masks
// and probabilities) plus the quantised Global Weight Table (weights and
// chain observable parities). Two decode servers produce byte-identical
// corrections for the same syndrome stream only if they agree on exactly
// this data, so the digest is what a client compares at handshake time: a
// server deployed with a perturbed noise model, a different distance, or a
// stale GWT hashes differently and can be refused before it mixes
// corrections from the wrong graph into a stream.
//
// The hash is FNV-1a over a fixed little-endian serialisation; it depends
// only on the model and table contents, never on pointer identity or map
// order, so it is reproducible across processes, architectures and
// restarts. It is an integrity check against misconfiguration, not a
// cryptographic commitment.
type Fingerprint uint64

// String renders the digest the way operators compare it: 16 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// hasher is a minimal FNV-1a accumulator over primitive values.
type hasher struct{ h uint64 }

func (s *hasher) bytes(b []byte) {
	for _, c := range b {
		s.h = (s.h ^ uint64(c)) * fnvPrime
	}
}

func (s *hasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.bytes(b[:])
}

// FingerprintOf digests a detector error model and its quantised GWT.
// Either argument may be nil, in which case that half is simply absent from
// the digest (the server always supplies both).
func FingerprintOf(m *dem.Model, t *GWT) Fingerprint {
	s := hasher{h: fnvOffset}
	if m != nil {
		s.u64(uint64(m.NumDetectors))
		s.u64(uint64(m.NumObservables))
		s.u64(uint64(len(m.Errors)))
		for _, e := range m.Errors {
			s.u64(uint64(len(e.Detectors)))
			for _, d := range e.Detectors {
				s.u64(uint64(d))
			}
			s.u64(e.ObsMask)
			s.u64(math.Float64bits(e.P))
		}
	}
	if t != nil {
		s.u64(uint64(t.N))
		s.bytes(t.q)
		for _, o := range t.obs {
			s.u64(o)
		}
	}
	return Fingerprint(s.h)
}
