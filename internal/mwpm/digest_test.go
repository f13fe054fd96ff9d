package mwpm

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/dem"
	"astrea/internal/prng"
	"astrea/internal/surface"
)

// TestDecodeDigestsPinned pins Decode's output — the observable, the
// weight's float bits and every pair — over sampled nonzero syndromes of
// Hamming weight up to 60, at whole-shot height for d ∈ {5, 7, 9}, at the
// 30-row stream-window height for d=5, and up to p = 1e-2. The digests
// were recorded on a weight table whose every direct chain was searched to
// completion, so a table change that moves any decision of the dense
// engine (which reads DirectWeight) fails here.
func TestDecodeDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		d, rounds int
		p         float64
		want      uint64
	}{
		{5, 5, 1e-3, 0xbdf87ce5d5c392bf},
		{5, 29, 3e-3, 0xcf4518a5102d37b7},
		{7, 7, 3e-3, 0x77af3a176af0b895},
		{7, 7, 1e-2, 0x9626ea0d65934828},
		{9, 9, 1e-3, 0x83427597b397f42c},
		{9, 9, 1e-2, 0x7ee615f8ab2f059e},
	} {
		code, err := surface.New(c.d)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := code.MemoryZ(c.rounds, c.p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dem.FromCircuit(cc)
		if err != nil {
			t.Fatal(err)
		}
		g, err := decodegraph.FromModel(m, cc.DetMetas)
		if err != nil {
			t.Fatal(err)
		}
		gwt, err := g.BuildGWT()
		if err != nil {
			t.Fatal(err)
		}
		dec := New(gwt)
		rng := prng.New(uint64(1000*c.d + c.rounds))
		smp := dem.NewSampler(m)
		s := bitvec.New(gwt.N)
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		decoded, maxHW := 0, 0
		for decoded < 5000 {
			smp.Sample(rng, s)
			hw := s.PopCount()
			if hw == 0 || hw > 60 {
				continue
			}
			decoded++
			maxHW = max(maxHW, hw)
			r := dec.Decode(s)
			put(r.ObsPrediction)
			put(math.Float64bits(r.Weight))
			put(uint64(len(r.Pairs)))
			for _, p := range r.Pairs {
				put(uint64(p[0]))
				put(uint64(p[1]))
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("d=%d rounds=%d p=%g (max HW %d): digest %#x, want %#x", c.d, c.rounds, c.p, maxHW, got, c.want)
		}
	}
}
