package compress

import (
	"testing"
	"testing/quick"

	"astrea/internal/bitvec"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

func codecs(n int) []Codec {
	return []Codec{Dense{}, Sparse{}, NewRice(n, 2), Rice{K: 0}, Rice{K: 6}}
}

func TestRoundTripHandPicked(t *testing.T) {
	cases := [][]int{
		{},
		{0},
		{15},
		{0, 15},
		{0, 1, 2, 3},
		{3, 7, 8, 9, 14},
	}
	const n = 16
	for _, c := range codecs(n) {
		for _, idx := range cases {
			s := bitvec.FromIndices(n, idx...)
			buf := c.Encode(s, nil)
			out := bitvec.New(n)
			consumed, err := c.Decode(buf, out)
			if err != nil {
				t.Fatalf("%s %v: %v", c.Name(), idx, err)
			}
			if consumed != len(buf) {
				t.Fatalf("%s %v: consumed %d of %d", c.Name(), idx, consumed, len(buf))
			}
			if !out.Equal(s) {
				t.Fatalf("%s %v: round-trip mismatch", c.Name(), idx)
			}
		}
	}
}

// Property: every codec round-trips arbitrary syndromes of arbitrary
// lengths.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, density uint8) bool {
		n := int(nRaw%700) + 1
		rng := prng.New(uint64(seed))
		p := float64(density%100) / 100
		s := bitvec.New(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				s.Set(i)
			}
		}
		for _, c := range codecs(n) {
			buf := c.Encode(s, nil)
			out := bitvec.New(n)
			consumed, err := c.Decode(buf, out)
			if err != nil || consumed != len(buf) || !out.Equal(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	s := bitvec.FromIndices(64, 3, 40, 60)
	for _, c := range codecs(64) {
		buf := c.Encode(s, nil)
		if len(buf) < 2 {
			continue
		}
		out := bitvec.New(64)
		if _, err := c.Decode(buf[:len(buf)-1], out); err == nil {
			// Rice can terminate early if the final gap fits; only dense and
			// sparse must hard-fail.
			if c.Name() == "dense" || c.Name() == "sparse" {
				t.Fatalf("%s accepted truncated payload", c.Name())
			}
		}
	}
}

func TestSparseHugeWeightFallsBack(t *testing.T) {
	s := bitvec.New(2048)
	for i := 0; i < 1024; i++ {
		s.Set(i * 2)
	}
	buf := (Sparse{}).Encode(s, nil)
	out := bitvec.New(2048)
	if _, err := (Sparse{}).Decode(buf, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(s) {
		t.Fatal("fallback round-trip failed")
	}
}

// Real syndromes at d=7, p=1e-3 must compress well below the dense bitmap
// — the §7.6 claim.
func TestCompressionOnRealSyndromes(t *testing.T) {
	env, err := montecarlo.SharedEnv(7, 7, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	n := env.Model.NumDetectors
	for _, c := range []Codec{Sparse{}, NewRice(n, env.Model.ExpectedErrors()*2)} {
		rng := prng.New(9)
		smp := dem.NewSampler(env.Model)
		shots := 0
		st, err := Measure(c, n, func(dst bitvec.Vec) bool {
			if shots >= 4000 {
				return false
			}
			shots++
			smp.Sample(rng, dst)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Ratio() < 3 {
			t.Fatalf("%s: compression ratio %.2f on real syndromes, expected > 3x", c.Name(), st.Ratio())
		}
		if st.MaxBytes > (n+7)/8+2 {
			t.Fatalf("%s: worst case %d bytes exceeds dense %d", c.Name(), st.MaxBytes, (n+7)/8)
		}
	}
}

// The dense codec is exactly ceil(n/8) bytes always.
func TestDenseSize(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 191, 192} {
		s := bitvec.New(n)
		buf := (Dense{}).Encode(s, nil)
		if len(buf) != (n+7)/8 {
			t.Fatalf("n=%d dense size %d", n, len(buf))
		}
	}
}

// Encoding into a warm destination allocates nothing: the codecs walk the
// set bits in place instead of materialising an index list per syndrome.
func TestEncodeWarmDstZeroAllocs(t *testing.T) {
	s := bitvec.FromIndices(192, 5, 60, 100, 101)
	for _, c := range []Codec{Dense{}, Sparse{}, NewRice(192, 4)} {
		buf := c.Encode(s, nil)
		if n := testing.AllocsPerRun(100, func() { buf = c.Encode(s, buf[:0]) }); n != 0 {
			t.Errorf("%s: Encode into a warm dst allocates %.0f times, want 0", c.Name(), n)
		}
	}
}

func BenchmarkSparseEncode(b *testing.B) {
	s := bitvec.FromIndices(192, 5, 60, 100, 101)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = (Sparse{}).Encode(s, buf[:0])
	}
}

func BenchmarkRiceEncode(b *testing.B) {
	s := bitvec.FromIndices(192, 5, 60, 100, 101)
	c := NewRice(192, 4)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.Encode(s, buf[:0])
	}
}

func TestCodecIDRegistry(t *testing.T) {
	for _, c := range []Codec{Dense{}, Sparse{}, Rice{K: 4}} {
		id, ok := IDOf(c)
		if !ok {
			t.Fatalf("%s has no wire ID", c.Name())
		}
		back, err := ForID(id, 4)
		if err != nil {
			t.Fatal(err)
		}
		if back.Name() != c.Name() {
			t.Fatalf("ID %d round-trip: %s != %s", id, back.Name(), c.Name())
		}
	}
	if _, err := ForID(99, 0); err == nil {
		t.Fatal("unknown codec ID must error")
	}
	if _, err := ForID(IDRice, 64); err == nil {
		t.Fatal("absurd rice K must error")
	}
	for name, want := range map[string]uint8{"dense": IDDense, "sparse": IDSparse, "rice": IDRice} {
		got, err := IDByName(name)
		if err != nil || got != want {
			t.Fatalf("IDByName(%q) = %d, %v", name, got, err)
		}
	}
	if _, err := IDByName("zstd"); err == nil {
		t.Fatal("unknown codec name must error")
	}
}
