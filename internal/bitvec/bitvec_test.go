package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Any() {
		t.Fatal("new vector has set bits")
	}
	if v.PopCount() != 0 {
		t.Fatalf("PopCount = %d, want 0", v.PopCount())
	}
}

func TestSetGetClearFlip(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if v.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Flip(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Flip", i)
		}
		v.Flip(i)
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestSetTo(t *testing.T) {
	v := New(10)
	v.SetTo(3, true)
	if !v.Get(3) {
		t.Fatal("SetTo true failed")
	}
	v.SetTo(3, false)
	if v.Get(3) {
		t.Fatal("SetTo false failed")
	}
}

func TestXorWith(t *testing.T) {
	a := FromIndices(100, 1, 50, 99)
	b := FromIndices(100, 1, 2, 99)
	a.XorWith(b)
	want := FromIndices(100, 2, 50)
	if !a.Equal(want) {
		t.Fatalf("xor = %v, want %v", a, want)
	}
}

func TestXorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(10).XorWith(New(11))
}

func TestOnes(t *testing.T) {
	idx := []int{0, 3, 63, 64, 100, 191}
	v := FromIndices(192, idx...)
	got := v.Ones(nil)
	if len(got) != len(idx) {
		t.Fatalf("Ones len = %d, want %d", len(got), len(idx))
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Ones[%d] = %d, want %d", i, got[i], idx[i])
		}
	}
}

// NextOne must walk exactly the indices Ones reports, from any start.
func TestNextOneWalksOnes(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 192, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i)
			}
		}
		var got []int
		for i := v.NextOne(0); i >= 0; i = v.NextOne(i + 1) {
			got = append(got, i)
		}
		want := v.Ones(nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d: NextOne walked %v, Ones reports %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: NextOne walked %v, Ones reports %v", n, got, want)
			}
		}
		if v.NextOne(n) != -1 || New(n).NextOne(0) != -1 {
			t.Fatalf("n=%d: NextOne found a bit past the end or in an empty vector", n)
		}
	}
}

// AppendWords must lay bit i at bit i%64 of word i/64, after what dst held.
func TestAppendWords(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i)
			}
		}
		got := v.AppendWords([]uint64{7})
		if len(got) != 1+(n+63)/64 || got[0] != 7 {
			t.Fatalf("n=%d: appended %d words after %v, want %d after the prefix", n, len(got)-1, got[:1], (n+63)/64)
		}
		for i := 0; i < n; i++ {
			if bit := got[1+i/64]>>(uint(i)%64)&1 == 1; bit != v.Get(i) {
				t.Fatalf("n=%d: bit %d appended as %v, vector holds %v", n, i, bit, v.Get(i))
			}
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromIndices(70, 5, 69)
	b := a.Clone()
	b.Flip(5)
	if !a.Get(5) {
		t.Fatal("mutating clone affected original")
	}
	if b.Get(5) {
		t.Fatal("clone flip failed")
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromIndices(70, 1, 2, 3)
	b := New(70)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestResetClearsAll(t *testing.T) {
	v := FromIndices(128, 0, 64, 127)
	v.Reset()
	if v.Any() {
		t.Fatal("Reset left set bits")
	}
}

func TestStringRendering(t *testing.T) {
	v := FromIndices(5, 0, 4)
	if s := v.String(); s != "10001" {
		t.Fatalf("String = %q, want 10001", s)
	}
}

func TestKeyDistinguishesVectors(t *testing.T) {
	a := FromIndices(72, 3)
	b := FromIndices(72, 4)
	if a.Key() == b.Key() {
		t.Fatal("distinct vectors share a key")
	}
	c := FromIndices(72, 3)
	if a.Key() != c.Key() {
		t.Fatal("equal vectors have different keys")
	}
}

func TestUint64(t *testing.T) {
	v := FromIndices(16, 0, 3)
	if got := v.Uint64(); got != 9 {
		t.Fatalf("Uint64 = %d, want 9", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >64-bit vector")
		}
	}()
	_ = New(65).Uint64()
}

// Property: PopCount equals the number of indices reported by Ones, and
// xor of a vector with itself is zero.
func TestQuickPopCountOnesXorSelf(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
			}
		}
		ones := v.Ones(nil)
		if len(ones) != v.PopCount() {
			return false
		}
		w := v.Clone()
		w.XorWith(v)
		return !w.Any()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: xor is commutative and associative on random vectors.
func TestQuickXorAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		mk := func() Vec {
			v := New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 1 {
					v.Set(i)
				}
			}
			return v
		}
		a, b, c := mk(), mk(), mk()
		// (a^b)^c
		l := a.Clone()
		l.XorWith(b)
		l.XorWith(c)
		// a^(b^c)
		r := b.Clone()
		r.XorWith(c)
		r.XorWith(a)
		return l.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXorWith1024(b *testing.B) {
	v := New(1024)
	w := FromIndices(1024, 5, 500, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.XorWith(w)
	}
}

func BenchmarkOnesSparse(b *testing.B) {
	v := FromIndices(4096, 1, 700, 2100, 4000)
	buf := make([]int, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = v.Ones(buf[:0])
	}
}
