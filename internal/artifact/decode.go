package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"astrea/internal/circuit"
	"astrea/internal/decodegraph"
	"astrea/internal/dem"
	"astrea/internal/surface"
)

// Typed failures. Every error Decode and Tables return wraps exactly one of
// these sentinels (os errors excepted in ReadFile), so callers can classify
// failures with errors.Is while the message pinpoints the offending field.
var (
	// ErrBadMagic: the input does not start with the ASTC magic.
	ErrBadMagic = errors.New("artifact: bad magic (not an .astc file)")
	// ErrVersion: the format version is not the one this build reads.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrTruncated: the input ends before a field, section or trailer it
	// promised.
	ErrTruncated = errors.New("artifact: truncated")
	// ErrChecksum: a section CRC32C or the file CRC32C does not match.
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrMalformed: a field decodes but violates the format's invariants
	// (wrong section tag, impossible count, inconsistent sizes, trailing
	// bytes, invalid probability...).
	ErrMalformed = errors.New("artifact: malformed")
	// ErrFingerprint: the stored fingerprint disagrees with the table
	// Tables rebuilt from the model — the content was tampered with or was
	// produced by an incompatible builder.
	ErrFingerprint = errors.New("artifact: fingerprint mismatch")
)

// reader is a bounds-checked little-endian cursor over one section payload.
type reader struct {
	b       []byte
	off     int
	section string
}

func (r *reader) need(n int, field string) error {
	if r.off+n > len(r.b) {
		return fmt.Errorf("%w: %s: %s at offset %d needs %d bytes, %d left",
			ErrTruncated, r.section, field, r.off, n, len(r.b)-r.off)
	}
	return nil
}

func (r *reader) u8(field string) (uint8, error) {
	if err := r.need(1, field); err != nil {
		return 0, err
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32(field string) (uint32, error) {
	if err := r.need(4, field); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64(field string) (uint64, error) {
	if err := r.need(8, field); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) f64(field string) (float64, error) {
	v, err := r.u64(field)
	return math.Float64frombits(v), err
}

func (r *reader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %s: %d trailing bytes after last field",
			ErrMalformed, r.section, len(r.b)-r.off)
	}
	return nil
}

// Decode parses and validates an .astc image. It never panics on arbitrary
// input and builds no table; the first violation aborts with an error
// wrapping one of the typed sentinels above.
func Decode(b []byte) (*Artifact, error) {
	const headerLen = 4 + 2 + 2
	if len(b) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d for header and trailer",
			ErrTruncated, len(b), headerLen+4)
	}
	if b[0] != magic[0] || b[1] != magic[1] || b[2] != magic[2] || b[3] != magic[3] {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, b[:4])
	}
	version := binary.LittleEndian.Uint16(b[4:])
	if version != Version {
		return nil, fmt.Errorf("%w: file is version %d, this build reads version %d; re-run `astrea compile` to rebuild it",
			ErrVersion, version, Version)
	}
	// Whole-file integrity first: the trailer CRC covers everything before
	// it, so a flipped bit anywhere is caught even if it lands in framing
	// bytes no section checksum covers.
	body, trailer := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.Checksum(body, castagnoli); got != trailer {
		return nil, fmt.Errorf("%w: file CRC32C %08x, trailer says %08x", ErrChecksum, got, trailer)
	}
	nSections := int(binary.LittleEndian.Uint16(b[6:]))
	if nSections != len(sectionOrder) {
		return nil, fmt.Errorf("%w: header declares %d sections, want %d",
			ErrMalformed, nSections, len(sectionOrder))
	}

	// Walk the fixed section sequence.
	payloads := make(map[uint32][]byte, len(sectionOrder))
	off := headerLen
	for _, wantTag := range sectionOrder {
		if off+4+8 > len(body) {
			return nil, fmt.Errorf("%w: section header for %s", ErrTruncated, tagName(wantTag))
		}
		tag := binary.LittleEndian.Uint32(body[off:])
		length := binary.LittleEndian.Uint64(body[off+4:])
		off += 4 + 8
		if tag != wantTag {
			return nil, fmt.Errorf("%w: expected section %s, found %s", ErrMalformed, tagName(wantTag), tagName(tag))
		}
		if length > uint64(len(body)-off) {
			return nil, fmt.Errorf("%w: section %s declares %d payload bytes, %d left",
				ErrTruncated, tagName(tag), length, len(body)-off)
		}
		payload := body[off : off+int(length)]
		off += int(length)
		if off+4 > len(body) {
			return nil, fmt.Errorf("%w: section %s CRC", ErrTruncated, tagName(tag))
		}
		want := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return nil, fmt.Errorf("%w: section %s CRC32C %08x, header says %08x",
				ErrChecksum, tagName(tag), got, want)
		}
		payloads[tag] = payload
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d bytes between last section and trailer", ErrMalformed, len(body)-off)
	}

	meta, numDet, numObs, fp, err := decodeMeta(payloads[secMeta])
	if err != nil {
		return nil, err
	}
	metas, err := decodeDetMetas(payloads[secDetm], numDet)
	if err != nil {
		return nil, err
	}
	model, err := decodeModel(payloads[secDemm], numDet, numObs)
	if err != nil {
		return nil, err
	}
	return &Artifact{Meta: meta, Metas: metas, Model: model, Fingerprint: fp}, nil
}

func tagName(tag uint32) string {
	return string([]byte{byte(tag), byte(tag >> 8), byte(tag >> 16), byte(tag >> 24)})
}

func decodeMeta(payload []byte) (meta Meta, numDet, numObs int, fp decodegraph.Fingerprint, err error) {
	r := &reader{b: payload, section: "META"}
	fail := func(e error) (Meta, int, int, decodegraph.Fingerprint, error) {
		return Meta{}, 0, 0, 0, e
	}
	d, err := r.u32("distance")
	if err != nil {
		return fail(err)
	}
	rounds, err := r.u32("rounds")
	if err != nil {
		return fail(err)
	}
	p, err := r.f64("p")
	if err != nil {
		return fail(err)
	}
	basis, err := r.u8("basis")
	if err != nil {
		return fail(err)
	}
	for i := 0; i < 3; i++ {
		pad, err := r.u8("pad")
		if err != nil {
			return fail(err)
		}
		if pad != 0 {
			return fail(fmt.Errorf("%w: META: pad byte %d is %#x, want 0", ErrMalformed, i, pad))
		}
	}
	nd, err := r.u32("numDetectors")
	if err != nil {
		return fail(err)
	}
	no, err := r.u32("numObservables")
	if err != nil {
		return fail(err)
	}
	fpv, err := r.u64("fingerprint")
	if err != nil {
		return fail(err)
	}
	generation, err := r.u64("generation")
	if err != nil {
		return fail(err)
	}
	if err := r.done(); err != nil {
		return fail(err)
	}
	switch {
	case d < 3 || d%2 == 0 || d > 1<<16:
		return fail(fmt.Errorf("%w: META: distance %d (want odd, >= 3)", ErrMalformed, d))
	case rounds < 1 || rounds > 1<<16:
		return fail(fmt.Errorf("%w: META: rounds %d out of range", ErrMalformed, rounds))
	case !(p > 0 && p < 1): // also rejects NaN
		return fail(fmt.Errorf("%w: META: physical error rate %v out of (0,1)", ErrMalformed, p))
	case basis != uint8(surface.BasisZ) && basis != uint8(surface.BasisX):
		return fail(fmt.Errorf("%w: META: unknown basis %d", ErrMalformed, basis))
	case nd > maxDetectors:
		return fail(fmt.Errorf("%w: META: %d detectors exceed the limit of %d", ErrMalformed, nd, maxDetectors))
	case uint64(nd) != detectorCount(d, rounds):
		return fail(fmt.Errorf("%w: META: %d detectors, but a d=%d memory experiment of %d rounds has %d",
			ErrMalformed, nd, d, rounds, detectorCount(d, rounds)))
	case no > 64:
		return fail(fmt.Errorf("%w: META: %d observables exceed the 64-bit mask", ErrMalformed, no))
	}
	meta = Meta{Distance: int(d), Rounds: int(rounds), P: p, Basis: surface.Basis(basis), Generation: generation}
	return meta, int(nd), int(no), decodegraph.Fingerprint(fpv), nil
}

// detectorCount is the number of detectors of a distance-d memory
// experiment over the given rounds: one per same-type stabilizer, (d²−1)/2
// of them, per round plus the final data-measurement row. Decode bounds d
// and rounds by 2^16 first, so the product cannot overflow.
func detectorCount(d, rounds uint32) uint64 {
	return (uint64(d)*uint64(d) - 1) / 2 * (uint64(rounds) + 1)
}

func decodeDetMetas(payload []byte, numDet int) ([]circuit.DetMeta, error) {
	r := &reader{b: payload, section: "DETM"}
	count, err := r.u32("count")
	if err != nil {
		return nil, err
	}
	if int(count) != numDet {
		return nil, fmt.Errorf("%w: DETM: %d metas for %d detectors", ErrMalformed, count, numDet)
	}
	metas := make([]circuit.DetMeta, count)
	for i := range metas {
		stab, err := r.u32("stab")
		if err != nil {
			return nil, err
		}
		round, err := r.u32("round")
		if err != nil {
			return nil, err
		}
		metas[i] = circuit.DetMeta{Stab: int(stab), Round: int(round)}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return metas, nil
}

func decodeModel(payload []byte, numDet, numObs int) (*dem.Model, error) {
	r := &reader{b: payload, section: "DEMM"}
	maxP, err := r.f64("maxP")
	if err != nil {
		return nil, err
	}
	count, err := r.u32("count")
	if err != nil {
		return nil, err
	}
	// Each mechanism occupies at least 1+4+8+8 bytes; an impossible count is
	// rejected before the allocation it would size.
	if int64(count)*21 > int64(len(payload)) {
		return nil, fmt.Errorf("%w: DEMM: %d mechanisms cannot fit in %d payload bytes",
			ErrTruncated, count, len(payload))
	}
	m := &dem.Model{
		NumDetectors:   numDet,
		NumObservables: numObs,
		Errors:         make([]dem.Error, 0, count),
	}
	var obsCeiling uint64 = 0
	if numObs > 0 {
		obsCeiling = (uint64(1) << uint(numObs)) - 1
		if numObs == 64 {
			obsCeiling = ^uint64(0)
		}
	}
	var gotMaxP float64
	for i := uint32(0); i < count; i++ {
		ndet, err := r.u8("ndet")
		if err != nil {
			return nil, err
		}
		if ndet != 1 && ndet != 2 {
			return nil, fmt.Errorf("%w: DEMM: mechanism %d flips %d detectors (want 1 or 2)", ErrMalformed, i, ndet)
		}
		dets := make([]int, ndet)
		for j := range dets {
			d, err := r.u32("detector")
			if err != nil {
				return nil, err
			}
			if int(d) >= numDet {
				return nil, fmt.Errorf("%w: DEMM: mechanism %d references detector %d of %d", ErrMalformed, i, d, numDet)
			}
			dets[j] = int(d)
		}
		if ndet == 2 && dets[0] >= dets[1] {
			return nil, fmt.Errorf("%w: DEMM: mechanism %d detectors %v not strictly ascending", ErrMalformed, i, dets)
		}
		obs, err := r.u64("obsMask")
		if err != nil {
			return nil, err
		}
		if obs&^obsCeiling != 0 {
			return nil, fmt.Errorf("%w: DEMM: mechanism %d observable mask %#x exceeds %d observables",
				ErrMalformed, i, obs, numObs)
		}
		p, err := r.f64("p")
		if err != nil {
			return nil, err
		}
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("%w: DEMM: mechanism %d probability %v out of (0,1)", ErrMalformed, i, p)
		}
		if p > gotMaxP {
			gotMaxP = p
		}
		m.Errors = append(m.Errors, dem.Error{Detectors: dets, ObsMask: obs, P: p})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if gotMaxP != maxP {
		return nil, fmt.Errorf("%w: DEMM: stored maxP %v, mechanisms say %v", ErrMalformed, maxP, gotMaxP)
	}
	m.MaxP = maxP
	return m, nil
}
