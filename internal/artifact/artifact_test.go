package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"astrea/internal/surface"
)

// testArtifact compiles the d=3 operating point once and shares it across
// tests; the artifact and its encoding are immutable, so every consumer
// must copy before mutating.
var testArtifact = sync.OnceValues(func() (*Artifact, error) {
	return Compile(3, 3, 1e-3, surface.BasisZ)
})

func compiled(t *testing.T) *Artifact {
	t.Helper()
	a, err := testArtifact()
	if err != nil {
		t.Fatalf("Compile(3, 3, 1e-3, Z): %v", err)
	}
	return a
}

func TestCompileDeterministic(t *testing.T) {
	a := compiled(t)
	b, err := Compile(3, 3, 1e-3, surface.BasisZ)
	if err != nil {
		t.Fatalf("second Compile: %v", err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ across identical compiles: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("two compiles of the same operating point encode differently")
	}
}

func TestEncodeDecodeReEncode(t *testing.T) {
	a := compiled(t)
	enc := a.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Meta != a.Meta {
		t.Errorf("meta round-trip: got %+v, want %+v", got.Meta, a.Meta)
	}
	if got.Fingerprint != a.Fingerprint {
		t.Errorf("fingerprint round-trip: got %s, want %s", got.Fingerprint, a.Fingerprint)
	}
	if !reflect.DeepEqual(got.Metas, a.Metas) {
		t.Error("detector metas differ after round-trip")
	}
	if !reflect.DeepEqual(got.Model, a.Model) {
		t.Error("model differs after round-trip")
	}
	if _, _, err := got.Tables(); err != nil {
		t.Errorf("Tables of the decoded artifact: %v", err)
	}
	re := got.Encode()
	if !bytes.Equal(re, enc) {
		t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(re), len(enc))
	}
}

func TestGenerationRoundTrip(t *testing.T) {
	base := compiled(t)
	a := *base
	a.Meta.Generation = 7
	enc := a.Encode()
	if v := binary.LittleEndian.Uint16(enc[4:]); v != Version {
		t.Fatalf("generation-carrying artifact encoded as version %d, want %d", v, Version)
	}
	if len(enc) != len(base.Encode()) {
		t.Fatalf("generation 7 encodes to %d bytes, generation 0 to %d: META has one layout", len(enc), len(base.Encode()))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Meta != a.Meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", got.Meta, a.Meta)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
	if s := a.Meta.String(); !strings.Contains(s, "gen=7") {
		t.Fatalf("Meta.String() = %q, want the generation shown", s)
	}
	if n := FileName(a.Meta); n != "astrea-d3-r3-p0.001-Z-gen7.astc" {
		t.Fatalf("FileName with generation = %q", n)
	}
}

func TestWriteReadFile(t *testing.T) {
	a := compiled(t)
	path := filepath.Join(t.TempDir(), FileName(a.Meta))
	if err := a.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Fingerprint != a.Fingerprint {
		t.Fatalf("fingerprint after file round-trip: got %s, want %s", got.Fingerprint, a.Fingerprint)
	}
	// A corrupt file surfaces the typed error with the path prefixed.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadFile of corrupted file: got %v, want ErrChecksum", err)
	}
}

func TestFileName(t *testing.T) {
	got := FileName(Meta{Distance: 7, Rounds: 7, P: 1e-3, Basis: surface.BasisZ})
	if want := "astrea-d7-r7-p0.001-Z.astc"; got != want {
		t.Fatalf("FileName: got %q, want %q", got, want)
	}
}

func TestNewRejectsInconsistentParts(t *testing.T) {
	a := compiled(t)
	_, gwt, err := a.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(a.Meta, a.Metas, nil, gwt); err == nil {
		t.Error("New accepted a nil model")
	}
	if _, err := New(a.Meta, a.Metas, a.Model, nil); err == nil {
		t.Error("New accepted a nil table")
	}
	if _, err := New(a.Meta, a.Metas[:len(a.Metas)-1], a.Model, gwt); err == nil {
		t.Error("New accepted a short detector-meta slice")
	}
}

// --- corruption matrix -----------------------------------------------------

func put16(b []byte, off int, v uint16) { binary.LittleEndian.PutUint16(b[off:], v) }
func put32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func putF64(b []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
}

// refit recomputes the trailing file CRC of a mutated image whose last four
// bytes are (stale) trailer.
func refit(img []byte) []byte {
	body := img[:len(img)-4]
	return le32(append([]byte{}, body...), crc32.Checksum(body, castagnoli))
}

// reassemble frames the three (possibly mutated) payloads with correct
// section CRCs and trailer, so only semantic validation can reject them.
func reassemble(meta, detm, demm []byte) []byte {
	out := append([]byte{}, magic[:]...)
	out = le16(out, Version)
	out = le16(out, uint16(len(sectionOrder)))
	out = appendSection(out, secMeta, meta)
	out = appendSection(out, secDetm, detm)
	out = appendSection(out, secDemm, demm)
	return le32(out, crc32.Checksum(out, castagnoli))
}

func TestDecodeCorruption(t *testing.T) {
	a := compiled(t)
	good := a.Encode()
	meta0 := a.encodeMeta(nil)
	detm0 := a.encodeDetMetas(nil)
	demm0 := a.encodeModel(nil)
	clone := func(b []byte) []byte { return append([]byte{}, b...) }

	// Offset of the first section header; sections start right after the
	// 8-byte file header.
	const headerLen = 8

	cases := []struct {
		name  string
		build func() []byte
		want  error
	}{
		{"empty input", func() []byte { return nil }, ErrTruncated},
		{"short input", func() []byte { return clone(good)[:8] }, ErrTruncated},
		{"bad magic", func() []byte {
			img := clone(good)
			img[0] ^= 0xff
			return img
		}, ErrBadMagic},
		{"unsupported version", func() []byte {
			img := clone(good)
			put16(img, 4, Version+1)
			return img
		}, ErrVersion},
		{"version 2 image", func() []byte {
			img := clone(good)
			put16(img, 4, 2)
			return img
		}, ErrVersion},
		{"payload bit flip without refit", func() []byte {
			img := clone(good)
			img[len(img)/2] ^= 0x01
			return img
		}, ErrChecksum},
		{"trailer bit flip", func() []byte {
			img := clone(good)
			img[len(img)-1] ^= 0x01
			return img
		}, ErrChecksum},
		{"truncated inside first section header", func() []byte {
			return refit(append(clone(good)[:headerLen+5], 0, 0, 0, 0))
		}, ErrTruncated},
		{"wrong section count", func() []byte {
			img := clone(good)
			put16(img, 6, uint16(len(sectionOrder))+1)
			return refit(img)
		}, ErrMalformed},
		{"wrong first tag", func() []byte {
			img := clone(good)
			put32(img, headerLen, secDetm)
			return refit(img)
		}, ErrMalformed},
		{"section length overruns file", func() []byte {
			img := clone(good)
			binary.LittleEndian.PutUint64(img[headerLen+4:], uint64(len(img)))
			return refit(img)
		}, ErrTruncated},
		{"section CRC flip with trailer refit", func() []byte {
			img := clone(good)
			img[headerLen+4+8+len(meta0)] ^= 0x01 // META's own CRC field
			return refit(img)
		}, ErrChecksum},
		{"slack byte before trailer", func() []byte {
			img := clone(good)
			body := append(clone(img[:len(img)-4]), 0)
			return le32(body, crc32.Checksum(body, castagnoli))
		}, ErrMalformed},
		{"meta: truncated fingerprint", func() []byte {
			return reassemble(clone(meta0)[:len(meta0)-8-1], detm0, demm0) // generation gone too
		}, ErrTruncated},
		{"meta: trailing byte", func() []byte {
			return reassemble(append(clone(meta0), 0), detm0, demm0)
		}, ErrMalformed},
		{"meta: even distance", func() []byte {
			m := clone(meta0)
			put32(m, 0, 4)
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: zero rounds", func() []byte {
			m := clone(meta0)
			put32(m, 4, 0)
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: NaN p", func() []byte {
			m := clone(meta0)
			putF64(m, 8, math.NaN())
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: unknown basis", func() []byte {
			m := clone(meta0)
			m[16] = 7
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: nonzero pad", func() []byte {
			m := clone(meta0)
			m[17] = 1
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: distance disagrees with detector count", func() []byte {
			m := clone(meta0)
			put32(m, 0, 999)
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: detector count over the limit", func() []byte {
			// d=21 over 21 rounds is a consistent 4 840-detector operating
			// point, past the 4 096 whose table a load would build; DETM
			// and an empty DEMM agree with it, so only the limit refuses.
			m := clone(meta0)
			put32(m, 0, 21)
			put32(m, 4, 21)
			put32(m, 20, 4840)
			detm := append(le32(nil, 4840), make([]byte, 4840*8)...)
			return reassemble(m, detm, le32(leF64(nil, 0), 0))
		}, ErrMalformed},
		{"meta: zero detectors", func() []byte {
			m := clone(meta0)
			put32(m, 20, 0)
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: 65 observables", func() []byte {
			m := clone(meta0)
			put32(m, 24, 65)
			return reassemble(m, detm0, demm0)
		}, ErrMalformed},
		{"meta: fingerprint flip", func() []byte {
			m := clone(meta0)
			m[28] ^= 0xff
			return reassemble(m, detm0, demm0)
		}, ErrFingerprint},
		{"detm: count mismatch", func() []byte {
			d := clone(detm0)
			put32(d, 0, uint32(len(a.Metas))+1)
			return reassemble(meta0, d, demm0)
		}, ErrMalformed},
		{"detm: truncated", func() []byte {
			return reassemble(meta0, clone(detm0)[:len(detm0)-2], demm0)
		}, ErrTruncated},
		{"demm: impossible count", func() []byte {
			d := clone(demm0)
			put32(d, 8, ^uint32(0))
			return reassemble(meta0, detm0, d)
		}, ErrTruncated},
		{"demm: maxP disagrees", func() []byte {
			d := clone(demm0)
			putF64(d, 0, 0.5)
			return reassemble(meta0, detm0, d)
		}, ErrMalformed},
		{"demm: mechanism flips 3 detectors", func() []byte {
			d := clone(demm0)
			d[12] = 3
			return reassemble(meta0, detm0, d)
		}, ErrMalformed},
		{"demm: detector out of bounds", func() []byte {
			d := clone(demm0)
			put32(d, 13, uint32(len(a.Metas)))
			return reassemble(meta0, detm0, d)
		}, ErrMalformed},
		{"demm: probability out of range", func() []byte {
			d := clone(demm0)
			ndet := int(d[12])
			putF64(d, 13+4*ndet+8, 1.5) // first mechanism's p field
			return reassemble(meta0, detm0, d)
		}, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art, err := Decode(tc.build())
			if err != nil && art != nil {
				t.Fatal("Decode returned a non-nil artifact alongside an error")
			}
			if err == nil && tc.want == ErrFingerprint {
				// A well-formed image whose fingerprint lies is caught
				// where a load builds its tables.
				_, _, err = art.Tables()
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode, then Tables: got error %v, want %v", err, tc.want)
			}
		})
	}

	// An old bundle is told how to become a current one.
	old := clone(good)
	put16(old, 4, 2)
	if _, err := Decode(old); err == nil || !strings.Contains(err.Error(), "astrea compile") {
		t.Fatalf("Decode of a version-2 image: %v, want a hint to re-run astrea compile", err)
	}

	// The matrix must not have mutated the shared payloads: the pristine
	// reassembly still decodes.
	if _, err := Decode(reassemble(meta0, detm0, demm0)); err != nil {
		t.Fatalf("pristine reassembly no longer decodes: %v", err)
	}
}
