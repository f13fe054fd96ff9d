package artifact

import (
	"fmt"
	"testing"

	"astrea/internal/surface"
)

// BenchmarkCompile measures the full build pipeline: surface code, circuit,
// DEM extraction and the all-pairs Dijkstra.
func BenchmarkCompile(b *testing.B) {
	for _, d := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(d, d, 1e-3, surface.BasisZ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadArtifact measures what a serving process pays to load a
// bundle: Decode, with every checksum and field check, then Tables, which
// rebuilds the decoding graph and weight table and re-verifies the
// fingerprint.
func BenchmarkLoadArtifact(b *testing.B) {
	for _, d := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			a, err := Compile(d, d, 1e-3, surface.BasisZ)
			if err != nil {
				b.Fatal(err)
			}
			enc := a.Encode()
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				art, err := Decode(enc)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := art.Tables(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
