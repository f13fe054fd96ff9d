package artifact

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzArtifactDecode throws arbitrary bytes at Decode. The invariants: it
// never panics, every failure wraps exactly one typed sentinel, and any
// input it accepts is canonical — re-encoding the decoded artifact
// reproduces the input byte for byte (the format admits no redundant
// representations, so a successful decode IS a round-trip proof).
func FuzzArtifactDecode(f *testing.F) {
	a, err := testArtifact()
	if err != nil {
		f.Fatalf("Compile: %v", err)
	}
	enc := a.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-4]) // no trailer
	f.Add(enc[:20])         // mid section header
	f.Add([]byte("ASTC"))
	f.Add([]byte{})
	mut := append([]byte{}, enc...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	meta := a.encodeMeta(nil)
	put32(meta, 0, 999) // a distance the detector count contradicts
	f.Add(reassemble(meta, a.encodeDetMetas(nil), a.encodeModel(nil)))

	sentinels := []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrMalformed, ErrFingerprint}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Decode(b)
		if err != nil {
			if got != nil {
				t.Fatal("Decode returned a non-nil artifact alongside an error")
			}
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("Decode error %v wraps no typed sentinel", err)
		}
		if !bytes.Equal(got.Encode(), b) {
			t.Fatal("accepted input is not canonical: re-encode differs")
		}
	})
}
