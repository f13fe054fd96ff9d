// Package compress implements syndrome compression (§7.6): the paper notes
// that "as syndromes are typically compressible, we can further employ
// Syndrome Compression to reduce bandwidth requirement". Syndromes are
// overwhelmingly zero (86–99% of rounds carry no flip at p ≤ 10⁻³), so a
// sparse encoding shrinks the control-processor → decoder link by an order
// of magnitude.
//
// Three codecs are provided, from trivial to entropy-aware:
//
//   - Dense: the raw bitmap (the baseline Table 7 assumes).
//   - Sparse: a set-bit index list with a count prefix — the scheme AFS
//     describes, optimal for very low Hamming weights.
//   - Rice: Golomb–Rice coding of the gaps between set bits, which tracks
//     the geometric gap distribution across the whole operating range.
//
// All codecs are exact (lossless) and allocation-light; Ratio reports the
// achieved bandwidth reduction for use in the Table 7 extension study.
package compress

import (
	"fmt"
	"math/bits"
	"slices"

	"astrea/internal/bitvec"
)

// Codec encodes syndromes to bytes and back.
type Codec interface {
	// Name identifies the codec in reports.
	Name() string
	// Encode appends the encoding of s to dst and returns it.
	Encode(s bitvec.Vec, dst []byte) []byte
	// Decode reconstructs a length-n syndrome into out from b, returning
	// the number of bytes consumed.
	Decode(b []byte, out bitvec.Vec) (int, error)
}

// Dense is the identity codec: ceil(n/8) bytes.
type Dense struct{}

// Name implements Codec.
func (Dense) Name() string { return "dense" }

// Encode implements Codec.
func (Dense) Encode(s bitvec.Vec, dst []byte) []byte {
	n := s.Len()
	for i := 0; i < n; i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < n; j++ {
			if s.Get(i + j) {
				b |= 1 << uint(j)
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// Decode implements Codec.
func (Dense) Decode(b []byte, out bitvec.Vec) (int, error) {
	n := out.Len()
	need := (n + 7) / 8
	if len(b) < need {
		return 0, fmt.Errorf("compress: dense payload truncated: %d < %d bytes", len(b), need)
	}
	out.Reset()
	for i := 0; i < n; i++ {
		if b[i/8]&(1<<uint(i%8)) != 0 {
			out.Set(i)
		}
	}
	return need, nil
}

// Sparse encodes the Hamming weight as one byte followed by one
// ceil(log2 n)-bit index per set bit (byte-packed). Weights above 255 fall
// back to a dense payload flagged by a 0xFF sentinel.
type Sparse struct{}

// Name implements Codec.
func (Sparse) Name() string { return "sparse" }

func indexBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Encode implements Codec.
func (Sparse) Encode(s bitvec.Vec, dst []byte) []byte {
	count := s.PopCount()
	if count >= 0xFF {
		dst = append(dst, 0xFF)
		return Dense{}.Encode(s, dst)
	}
	ib := indexBits(s.Len())
	dst = slices.Grow(dst, 1+(count*ib+7)/8)
	dst = append(dst, byte(count))
	var acc uint64
	accBits := 0
	for idx := s.NextOne(0); idx >= 0; idx = s.NextOne(idx + 1) {
		acc |= uint64(idx) << uint(accBits)
		accBits += ib
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// Decode implements Codec.
func (Sparse) Decode(b []byte, out bitvec.Vec) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("compress: empty sparse payload")
	}
	if b[0] == 0xFF {
		consumed, err := (Dense{}).Decode(b[1:], out)
		return consumed + 1, err
	}
	count := int(b[0])
	ib := indexBits(out.Len())
	need := 1 + (count*ib+7)/8
	if len(b) < need {
		return 0, fmt.Errorf("compress: sparse payload truncated: %d < %d bytes", len(b), need)
	}
	out.Reset()
	var acc uint64
	accBits := 0
	pos := 1
	for i := 0; i < count; i++ {
		for accBits < ib {
			acc |= uint64(b[pos]) << uint(accBits)
			pos++
			accBits += 8
		}
		idx := int(acc & (1<<uint(ib) - 1))
		acc >>= uint(ib)
		accBits -= ib
		if idx >= out.Len() {
			return 0, fmt.Errorf("compress: sparse index %d out of range %d", idx, out.Len())
		}
		out.Set(idx)
	}
	return need, nil
}

// Rice is Golomb–Rice gap coding: the gaps between consecutive set bits
// (and the terminator) are coded as quotient-unary/remainder-binary with
// parameter K. K should approximate log2(mean gap); NewRice picks it from
// the expected set-bit density.
type Rice struct {
	K uint
}

// NewRice returns a Rice codec tuned for syndromes of length n with
// expected Hamming weight w.
func NewRice(n int, expectedWeight float64) Rice {
	if expectedWeight < 0.25 {
		expectedWeight = 0.25
	}
	gap := float64(n) / (expectedWeight + 1)
	k := uint(0)
	for float64(uint(1)<<(k+1)) < gap {
		k++
	}
	return Rice{K: k}
}

// Name implements Codec.
func (r Rice) Name() string { return fmt.Sprintf("rice(k=%d)", r.K) }

type bitWriter struct {
	dst  []byte
	acc  uint64
	nacc int
}

func (w *bitWriter) write(v uint64, n int) {
	w.acc |= v << uint(w.nacc)
	w.nacc += n
	for w.nacc >= 8 {
		w.dst = append(w.dst, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

func (w *bitWriter) flush() []byte {
	if w.nacc > 0 {
		w.dst = append(w.dst, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
	return w.dst
}

type bitReader struct {
	src  []byte
	pos  int
	acc  uint64
	nacc int
}

func (r *bitReader) read(n int) (uint64, error) {
	for r.nacc < n {
		if r.pos >= len(r.src) {
			return 0, fmt.Errorf("compress: rice payload truncated")
		}
		r.acc |= uint64(r.src[r.pos]) << uint(r.nacc)
		r.pos++
		r.nacc += 8
	}
	v := r.acc & (1<<uint(n) - 1)
	r.acc >>= uint(n)
	r.nacc -= n
	return v, nil
}

func (r *bitReader) readUnary() (int, error) {
	q := 0
	for {
		b, err := r.read(1)
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return q, nil
		}
		q++
		if q > 1<<20 {
			return 0, fmt.Errorf("compress: runaway unary code")
		}
	}
}

// Encode implements Codec. Gaps are delta-1 encoded; a final gap to one
// past the end terminates the stream.
func (r Rice) Encode(s bitvec.Vec, dst []byte) []byte {
	w := bitWriter{dst: dst}
	prev := -1
	emit := func(gap int) {
		q := uint64(gap) >> r.K
		for i := uint64(0); i < q; i++ {
			w.write(0, 1)
		}
		w.write(1, 1) // unary terminator
		if r.K > 0 {
			w.write(uint64(gap)&(1<<r.K-1), int(r.K))
		}
	}
	for idx := s.NextOne(0); idx >= 0; idx = s.NextOne(idx + 1) {
		emit(idx - prev - 1)
		prev = idx
	}
	emit(s.Len() - prev - 1) // terminator gap
	return w.flush()
}

// Decode implements Codec.
func (r Rice) Decode(b []byte, out bitvec.Vec) (int, error) {
	rd := bitReader{src: b}
	out.Reset()
	pos := -1
	for {
		q, err := rd.readUnary()
		if err != nil {
			return 0, err
		}
		gap := q << r.K
		if r.K > 0 {
			rem, err := rd.read(int(r.K))
			if err != nil {
				return 0, err
			}
			gap |= int(rem)
		}
		pos += gap + 1
		if pos == out.Len() {
			return rd.pos, nil
		}
		if pos > out.Len() {
			return 0, fmt.Errorf("compress: rice index %d beyond length %d", pos, out.Len())
		}
		out.Set(pos)
	}
}

// Wire codec identifiers. The decode service negotiates the per-stream
// codec by these IDs during its handshake (internal/server); they are part
// of the wire protocol and must stay stable.
const (
	IDDense  uint8 = 0
	IDSparse uint8 = 1
	IDRice   uint8 = 2
)

// IDOf returns the wire identifier of a codec.
func IDOf(c Codec) (uint8, bool) {
	switch c.(type) {
	case Dense:
		return IDDense, true
	case Sparse:
		return IDSparse, true
	case Rice:
		return IDRice, true
	}
	return 0, false
}

// ForID builds the codec for a wire identifier. riceK is the Golomb–Rice
// parameter carried alongside IDRice (ignored for the other codecs); both
// peers must use the same K, so the server picks it and announces it in the
// handshake.
func ForID(id uint8, riceK uint) (Codec, error) {
	switch id {
	case IDDense:
		return Dense{}, nil
	case IDSparse:
		return Sparse{}, nil
	case IDRice:
		if riceK > 32 {
			return nil, fmt.Errorf("compress: rice parameter k=%d out of range", riceK)
		}
		return Rice{K: riceK}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec id %d", id)
}

// IDByName maps a human codec name ("dense", "sparse", "rice") to its wire
// identifier.
func IDByName(name string) (uint8, error) {
	switch name {
	case "dense":
		return IDDense, nil
	case "sparse":
		return IDSparse, nil
	case "rice":
		return IDRice, nil
	}
	return 0, fmt.Errorf("compress: unknown codec %q (want dense, sparse or rice)", name)
}

// Stats aggregates codec performance over a syndrome stream.
type Stats struct {
	Codec      string
	Syndromes  int
	TotalBytes int
	DenseBytes int
	MaxBytes   int
}

// MeanBytes is the average encoded size.
func (s Stats) MeanBytes() float64 {
	if s.Syndromes == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Syndromes)
}

// Ratio is the mean compression ratio versus the dense bitmap.
func (s Stats) Ratio() float64 {
	if s.TotalBytes == 0 {
		return 0
	}
	return float64(s.DenseBytes) / float64(s.TotalBytes)
}

// Measure encodes every syndrome produced by next (until it returns false)
// and tallies sizes. The round-trip is verified on every syndrome; any
// mismatch is reported as an error.
func Measure(c Codec, n int, next func(dst bitvec.Vec) bool) (Stats, error) {
	st := Stats{Codec: c.Name()}
	s := bitvec.New(n)
	back := bitvec.New(n)
	var buf []byte
	dense := (n + 7) / 8
	for next(s) {
		buf = c.Encode(s, buf[:0])
		consumed, err := c.Decode(buf, back)
		if err != nil {
			return st, err
		}
		if consumed != len(buf) {
			return st, fmt.Errorf("compress: codec %s consumed %d of %d bytes", c.Name(), consumed, len(buf))
		}
		if !back.Equal(s) {
			return st, fmt.Errorf("compress: codec %s round-trip mismatch", c.Name())
		}
		st.Syndromes++
		st.TotalBytes += len(buf)
		st.DenseBytes += dense
		if len(buf) > st.MaxBytes {
			st.MaxBytes = len(buf)
		}
	}
	return st, nil
}
