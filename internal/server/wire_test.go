package server

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[FrameType][]byte{
		FrameHello:  Hello{Version: 1, Distance: 7, Codec: 2}.AppendTo(nil),
		FrameDecode: DecodeRequest{Seq: 42, DeadlineNs: 1000, Payload: []byte{1, 2, 3}}.AppendTo(nil),
		FrameResult: ResultFrame{Seq: 42, ObsMask: 1, WeightMilli: 12345, SojournNs: 987, Flags: FlagDeadlineMiss}.AppendTo(nil),
	}
	for ft, p := range payloads {
		if err := WriteFrame(&buf, ft, p); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[FrameType][]byte{}
	for i := 0; i < len(payloads); i++ {
		ft, p, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[ft] = p
	}
	for ft, want := range payloads {
		if !bytes.Equal(seen[ft], want) {
			t.Fatalf("frame %d payload mismatch: %x != %x", ft, seen[ft], want)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d stray bytes after reading all frames", buf.Len())
	}
}

func TestReadFrameRejectsOversizeAndZero(t *testing.T) {
	// Oversize claim: must fail before allocating the claimed size.
	oversize := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}
	if _, _, err := ReadFrame(bytes.NewReader(oversize), 1<<16); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversize frame accepted: %v", err)
	}
	zero := []byte{0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(zero), 0); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	truncated := []byte{0, 0, 0, 10, 1, 2}
	if _, _, err := ReadFrame(bytes.NewReader(truncated), 0); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Fatal("empty stream must yield EOF")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Version: ProtocolVersion, Distance: 11, Codec: 1}
	got, err := ParseHello(h.AppendTo(nil))
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	if _, err := ParseHello([]byte{1, 2, 3}); err == nil {
		t.Fatal("short hello accepted")
	}
	bad := h.AppendTo(nil)
	bad[0] ^= 0xFF // corrupt magic
	if _, err := ParseHello(bad); err == nil || errors.Is(err, errBadVersion) {
		t.Fatalf("bad magic: %v, want a malformed-hello error", err)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	a := HelloAck{
		Version: ProtocolVersion, Status: StatusOK, NumDetectors: 72,
		Codec: 2, RiceK: 5, QueueDepth: 1024, Message: "ok",
	}
	got, err := ParseHelloAck(a.AppendTo(nil))
	if err != nil || !got.equal(a) {
		t.Fatalf("hello-ack round trip: %+v, %v", got, err)
	}
	if _, err := ParseHelloAck(make([]byte, 24)); err == nil {
		t.Fatal("short hello-ack accepted")
	}
}

// TestExtendedHelloRoundTrip: the 12-byte hello that v2 called extended is
// v3's only form. Its feature word round-trips, and a hello of another
// protocol version — v2's 8-byte and 12-byte forms included — is refused
// by version before its length is judged.
func TestExtendedHelloRoundTrip(t *testing.T) {
	h := Hello{Version: ProtocolVersion, Distance: 9, Codec: 2,
		Features: FeatureChecksum | FeatureProbe}
	enc := h.AppendTo(nil)
	if len(enc) != 12 {
		t.Fatalf("hello serialised to %d bytes, want 12", len(enc))
	}
	got, err := ParseHello(enc)
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	if _, err := ParseHello(enc[:10]); err == nil || errors.Is(err, errBadVersion) {
		t.Fatalf("10-byte hello: %v, want a malformed-hello error", err)
	}
	v2 := Hello{Version: 2, Distance: 9, Codec: 2}.AppendTo(nil)
	for _, b := range [][]byte{v2[:8], v2} {
		if _, err := ParseHello(b); !errors.Is(err, errBadVersion) {
			t.Fatalf("%d-byte v2 hello: %v, want errBadVersion", len(b), err)
		}
	}
}

// TestHelloAckExtRoundTrip: the fields v2 sent only in its extended ack —
// accepted features, the fingerprint and the live fingerprint set — round
// trip in v3's one layout, and the message stays last.
func TestHelloAckExtRoundTrip(t *testing.T) {
	a := HelloAck{
		Version: ProtocolVersion, Status: StatusOK, NumDetectors: 72,
		Codec: 2, RiceK: 5, QueueDepth: 1024,
		Features: FeatureChecksum, Fingerprint: 0xDEADBEEFCAFEF00D,
		FingerprintSet: []uint64{0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF}, Message: "ok",
	}
	enc := a.AppendTo(nil)
	if want := 25 + 2*8 + len(a.Message); len(enc) != want {
		t.Fatalf("hello-ack serialised to %d bytes, want %d", len(enc), want)
	}
	got, err := ParseHelloAck(enc)
	if err != nil || !got.equal(a) {
		t.Fatalf("hello-ack round trip: %+v, %v", got, err)
	}
	if _, err := ParseHelloAck(enc[:25+8]); err == nil {
		t.Fatal("hello-ack truncated inside its fingerprint set accepted")
	}
}

func TestCheckedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrameChecked(&buf, FrameDecode, payload); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), buf.Bytes()...)
	ft, got, err := ReadFrameChecked(bytes.NewReader(clean), 0)
	if err != nil || ft != FrameDecode || !bytes.Equal(got, payload) {
		t.Fatalf("checked round trip: %d, %x, %v", ft, got, err)
	}

	// Flip one payload bit: the read must surface ErrChecksum AND the
	// best-effort type/payload, so the server can correlate the rejection
	// to a sequence number.
	for bit := 0; bit < 8*len(clean); bit++ {
		corrupt := append([]byte(nil), clean...)
		if bit/8 < 4 {
			continue // the length prefix is framing, not checksummed content
		}
		corrupt[bit/8] ^= 1 << (bit % 8)
		_, _, err := ReadFrameChecked(bytes.NewReader(corrupt), 0)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit %d flip: err = %v, want ErrChecksum", bit, err)
		}
	}

	// A checked frame read by the unchecked reader carries a 4-byte
	// trailer; a checked reader must reject an unchecked (trailerless)
	// frame rather than misinterpret payload bytes as a CRC.
	var plain bytes.Buffer
	WriteFrame(&plain, FrameResult, []byte{9})
	if _, _, err := ReadFrameChecked(bytes.NewReader(plain.Bytes()), 0); err == nil {
		t.Fatal("trailerless frame accepted by the checked reader")
	}
}

func TestPingRoundTrip(t *testing.T) {
	nonce, err := ParsePing(AppendPing(nil, 0x0123456789ABCDEF))
	if err != nil || nonce != 0x0123456789ABCDEF {
		t.Fatalf("ping round trip: %x, %v", nonce, err)
	}
	if _, err := ParsePing(make([]byte, 7)); err == nil {
		t.Fatal("short ping accepted")
	}
}

func TestDecodeRequestRoundTrip(t *testing.T) {
	d := DecodeRequest{Seq: 7, DeadlineNs: 123456, Payload: []byte{9, 8, 7}}
	got, err := ParseDecodeRequest(d.AppendTo(nil))
	if err != nil || got.Seq != d.Seq || got.DeadlineNs != d.DeadlineNs || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("decode round trip: %+v, %v", got, err)
	}
	// Empty payload is legal (an all-zero dense syndrome of length 0 is
	// not, but that is the codec's concern, not the framing's).
	empty := DecodeRequest{Seq: 1}
	if _, err := ParseDecodeRequest(empty.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDecodeRequest(make([]byte, 15)); err == nil {
		t.Fatal("short decode request accepted")
	}
}

func TestResultRejectErrorRoundTrip(t *testing.T) {
	r := ResultFrame{Seq: 3, ObsMask: 5, WeightMilli: 700, SojournNs: 456, Flags: FlagRealTime | FlagSkipped,
		Fingerprint: 0xFEEDFACE}
	gotR, err := ParseResultFrame(r.AppendTo(nil))
	if err != nil || gotR != r {
		t.Fatalf("result round trip: %+v, %v", gotR, err)
	}
	if _, err := ParseResultFrame(make([]byte, 40)); err == nil {
		t.Fatal("short result accepted")
	}

	j := RejectFrame{Seq: 9, RetryAfterNs: 5000}
	gotJ, err := ParseRejectFrame(j.AppendTo(nil))
	if err != nil || gotJ != j {
		t.Fatalf("reject round trip: %+v, %v", gotJ, err)
	}
	if _, err := ParseRejectFrame(make([]byte, 15)); err == nil {
		t.Fatal("short reject accepted")
	}

	e := ErrorFrame{Seq: 2, Message: "bad payload"}
	gotE, err := ParseErrorFrame(e.AppendTo(nil))
	if err != nil || gotE != e {
		t.Fatalf("error round trip: %+v, %v", gotE, err)
	}
	if _, err := ParseErrorFrame(make([]byte, 7)); err == nil {
		t.Fatal("short error accepted")
	}
}
