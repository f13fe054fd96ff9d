package artifact

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Section tags, four ASCII characters read as a little-endian u32.
const (
	secMeta = uint32('M') | uint32('E')<<8 | uint32('T')<<16 | uint32('A')<<24
	secDetm = uint32('D') | uint32('E')<<8 | uint32('T')<<16 | uint32('M')<<24
	secDemm = uint32('D') | uint32('E')<<8 | uint32('M')<<16 | uint32('M')<<24
)

// sectionOrder is the fixed section sequence of a file.
var sectionOrder = [...]uint32{secMeta, secDetm, secDemm}

var magic = [4]byte{'A', 'S', 'T', 'C'}

// castagnoli is the CRC32C table shared by every checksum in the format
// (the same polynomial the wire protocol's checked frames use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func le16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func leF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendSection frames one section: tag, payload length, payload, payload
// CRC32C.
func appendSection(b []byte, tag uint32, payload []byte) []byte {
	b = le32(b, tag)
	b = le64(b, uint64(len(payload)))
	b = append(b, payload...)
	return le32(b, crc32.Checksum(payload, castagnoli))
}

// Encode serializes the artifact into the .astc layout. The output is
// deterministic: the same artifact content always yields byte-identical
// files.
func (a *Artifact) Encode() []byte {
	meta := a.encodeMeta(nil)
	detm := a.encodeDetMetas(nil)
	demm := a.encodeModel(nil)

	size := len(magic) + 2 + 2 +
		len(sectionOrder)*(4+8+4) + len(meta) + len(detm) + len(demm) + 4
	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = le16(out, Version)
	out = le16(out, uint16(len(sectionOrder)))
	out = appendSection(out, secMeta, meta)
	out = appendSection(out, secDetm, detm)
	out = appendSection(out, secDemm, demm)
	return le32(out, crc32.Checksum(out, castagnoli))
}

// encodeMeta lays out the META payload: distance u32, rounds u32, p f64,
// basis u8, 3 zero pad bytes, numDetectors u32, numObservables u32,
// fingerprint u64, generation u64.
func (a *Artifact) encodeMeta(b []byte) []byte {
	b = le32(b, uint32(a.Meta.Distance))
	b = le32(b, uint32(a.Meta.Rounds))
	b = leF64(b, a.Meta.P)
	b = append(b, uint8(a.Meta.Basis), 0, 0, 0)
	b = le32(b, uint32(a.Model.NumDetectors))
	b = le32(b, uint32(a.Model.NumObservables))
	b = le64(b, uint64(a.Fingerprint))
	return le64(b, a.Meta.Generation)
}

// encodeDetMetas lays out the DETM payload: count u32, then per detector
// stab u32 and round u32.
func (a *Artifact) encodeDetMetas(b []byte) []byte {
	b = le32(b, uint32(len(a.Metas)))
	for _, m := range a.Metas {
		b = le32(b, uint32(m.Stab))
		b = le32(b, uint32(m.Round))
	}
	return b
}

// encodeModel lays out the DEMM payload — the detector error model, which
// is also the decoding graph's canonical generating edge list: maxP f64,
// count u32, then per mechanism ndet u8, detectors u32 each, obsMask u64,
// p f64. Mechanisms are already in the model's deterministic sorted order.
func (a *Artifact) encodeModel(b []byte) []byte {
	b = leF64(b, a.Model.MaxP)
	b = le32(b, uint32(len(a.Model.Errors)))
	for _, e := range a.Model.Errors {
		b = append(b, uint8(len(e.Detectors)))
		for _, d := range e.Detectors {
			b = le32(b, uint32(d))
		}
		b = le64(b, e.ObsMask)
		b = leF64(b, e.P)
	}
	return b
}
