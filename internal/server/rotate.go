package server

import (
	"fmt"
	"slices"
	"sort"

	"astrea/internal/artifact"
	"astrea/internal/decodegraph"
	"astrea/internal/montecarlo"
)

// Zero-downtime artifact rotation: a running daemon swaps one distance's
// decoder pool to a newly compiled .astc generation without dropping a
// request. The swap is an atomic pointer store on the distance's slot —
// new work (and new handshakes) land on the new generation immediately,
// while everything already holding the old one finishes on it:
//
//   - queued and in-flight requests decode against the generation they
//     resolved at admission (each holds a reference);
//   - open streaming sessions stay pinned to the generation they opened
//     on, so an old-generation stream finishes bit-identical to an
//     uninterrupted run.
//
// A connection is not pinned: each request resolves the current
// generation, and its result names that generation's fingerprint.
//
// When the last reference drops, the superseded generation retires — the
// same drain discipline Close applies to the whole daemon, scoped to one
// pool. The retiring generation's fingerprint stays in the advertised
// live set until then, so a client can accept answers from both sides of
// the transition window.

// Rotation describes one hot-swap: the compiled artifact to serve and,
// optionally, the decoder to build over it.
type Rotation struct {
	// Artifact is the new generation's compiled operating point. Its
	// distance selects the slot to swap; its rounds, basis and detector
	// count must match what the slot currently serves (the physical error
	// rate MAY differ — recalibration is the point of rotating).
	Artifact *artifact.Artifact
	// Decoder optionally selects the matcher for the new generation
	// (FactoryFor names); empty keeps the server's configured decoder.
	Decoder string
}

// Rotate hot-swaps the artifact's distance to the new generation and
// returns its fingerprint. In-flight work drains on the old generation,
// which retires when its last reference drops; no request is dropped or
// re-answered. Rotating to the fingerprint already being served is an
// error (nothing to do), as is changing the operating point's shape
// (rounds, basis, detector count) — those would break codecs and open
// streams mid-flight.
func (s *Server) Rotate(rot Rotation) (decodegraph.Fingerprint, error) {
	a := rot.Artifact
	if a == nil {
		return 0, fmt.Errorf("server: rotation carries no artifact")
	}
	slot, ok := s.pools[a.Meta.Distance]
	if !ok {
		return 0, fmt.Errorf("server: rotation for distance %d, which is not served (have %v)", a.Meta.Distance, s.Distances())
	}
	env, err := montecarlo.NewEnvFromArtifact(a)
	if err != nil {
		return 0, err
	}
	cur := slot.cur.Load()
	if env.Model.NumDetectors != cur.env.Model.NumDetectors {
		return 0, fmt.Errorf("server: rotation %s has %d detectors, serving %d — the syndrome width cannot change mid-flight",
			a.Meta, env.Model.NumDetectors, cur.env.Model.NumDetectors)
	}
	if env.Rounds != cur.env.Rounds || env.Basis != cur.env.Basis {
		return 0, fmt.Errorf("server: rotation %s changes the operating point shape (serving r=%d basis=%s)",
			a.Meta, cur.env.Rounds, cur.env.Basis)
	}
	name := rot.Decoder
	if name == "" {
		name = s.cfg.Decoder
	}
	factory, err := FactoryFor(name)
	if err != nil {
		return 0, err
	}
	next, err := s.buildPool(a.Meta.Distance, a.Meta.Generation, env, factory, name)
	if err != nil {
		return 0, err
	}

	s.rotateMu.Lock()
	old := slot.cur.Load()
	if next.fp == old.fp {
		s.rotateMu.Unlock()
		return old.fp, fmt.Errorf("server: d=%d is already serving fingerprint %s", a.Meta.Distance, old.fp)
	}
	slot.live = append([]*distPool{next}, slot.live...)
	slot.cur.Store(next)
	old.retiring.Store(true)
	s.stats.rotations.Add(1)
	s.maybeRetireLocked(slot, old)
	s.rotateMu.Unlock()
	return next.fp, nil
}

// acquirePool resolves the generation a new request or stream session
// decodes against — the slot's current one — and takes a reference on it,
// re-checking after the increment so a concurrent Rotate cannot retire the
// pool between the load and the acquire.
func (s *Server) acquirePool(c *conn) *distPool {
	for {
		p := c.slot.cur.Load()
		p.refs.Add(1)
		if c.slot.cur.Load() == p {
			// Still current after the increment: any rotation that swaps p
			// out happens-after it, so its retire check sees our reference.
			return p
		}
		s.releasePool(p) // raced a rotation; retry against the new current
	}
}

// releasePool drops one reference; the last reference out of a retiring
// generation retires it.
func (s *Server) releasePool(p *distPool) {
	if p.refs.Add(-1) == 0 && p.retiring.Load() {
		s.rotateMu.Lock()
		if slot, ok := s.pools[p.dist]; ok {
			s.maybeRetireLocked(slot, p)
		}
		s.rotateMu.Unlock()
	}
}

// maybeRetireLocked retires a drained superseded generation: removes it
// from the slot's live set (and the advertised fingerprint set) and counts
// it. Callers hold rotateMu.
func (s *Server) maybeRetireLocked(slot *distSlot, p *distPool) {
	if p.retired || !p.retiring.Load() || p.refs.Load() != 0 {
		return
	}
	p.retired = true
	for i, q := range slot.live {
		if q == p {
			// slices.Delete zeroes the vacated tail, so the retired pool
			// (and its environment) is not pinned past len by the backing
			// array.
			slot.live = slices.Delete(slot.live, i, i+1)
			break
		}
	}
	s.stats.generationsRetired.Add(1)
}

// liveFingerprints shapes a handshake's advertised fingerprint set: the
// lead pool's digest first, then every other not-yet-retired generation of
// the slot.
func (s *Server) liveFingerprints(slot *distSlot, lead *distPool) []uint64 {
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	out := make([]uint64, 0, len(slot.live)+1)
	out = append(out, uint64(lead.fp))
	for _, p := range slot.live {
		if p != lead {
			out = append(out, uint64(p.fp))
		}
	}
	return out
}

// GenerationStatus is one distance's rotation state in the stats snapshot.
type GenerationStatus struct {
	// Generation is the current artifact's generation ordinal (0 when the
	// pool was built without one).
	Generation uint64 `json:"generation"`
	// Fingerprint is the current generation's digest; LiveFingerprints
	// lists every not-yet-retired generation's digest, current first — more
	// than one entry means an old generation is still draining.
	Fingerprint      string   `json:"fingerprint"`
	LiveFingerprints []string `json:"live_fingerprints"`
	// P is the physical error rate the current tables are programmed for.
	P float64 `json:"p"`
}

// generationStatuses shapes the per-distance rotation state for the
// snapshot. Keys are decimal distances.
func (s *Server) generationStatuses() map[string]GenerationStatus {
	dists := s.Distances()
	out := make(map[string]GenerationStatus, len(dists))
	sort.Ints(dists)
	for _, d := range dists {
		slot := s.pools[d]
		s.rotateMu.Lock()
		cur := slot.cur.Load()
		live := make([]string, len(slot.live))
		for i, p := range slot.live {
			live[i] = p.fp.String()
		}
		s.rotateMu.Unlock()
		out[fmt.Sprintf("%d", d)] = GenerationStatus{
			Generation:       cur.gen,
			Fingerprint:      cur.fp.String(),
			LiveFingerprints: live,
			P:                cur.p,
		}
	}
	return out
}
