package server

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
)

// FuzzFrame feeds arbitrary byte streams through the frame reader and every
// payload parser, including the codec layer a Decode frame's payload passes
// through on the daemon. Malformed lengths, truncated payloads and
// out-of-range codec IDs must all surface as errors — never panics, never
// unbounded allocations (the 64 KiB cap stands in for the daemon's frame
// cap).
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	var seed bytes.Buffer
	WriteFrame(&seed, FrameHello, Hello{Version: ProtocolVersion, Distance: 5, Codec: compress.IDSparse}.AppendTo(nil))
	WriteFrame(&seed, FrameDecode, DecodeRequest{Seq: 1, DeadlineNs: 1000, Payload: []byte{2, 3, 9}}.AppendTo(nil))
	WriteFrame(&seed, FrameResult, ResultFrame{Seq: 1, ObsMask: 1}.AppendTo(nil))
	WriteFrame(&seed, FrameReject, RejectFrame{Seq: 2, RetryAfterNs: 100}.AppendTo(nil))
	WriteFrame(&seed, FrameError, ErrorFrame{Seq: 3, Message: "x"}.AppendTo(nil))
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		out := bitvec.New(72) // d=5 syndrome length
		for {
			ft, payload, err := ReadFrame(r, 1<<16)
			if err != nil {
				return
			}
			switch ft {
			case FrameHello:
				ParseHello(payload)
			case FrameHelloAck:
				if ack, err := ParseHelloAck(payload); err == nil {
					// The codec ID and Rice K travel the wire; building a
					// codec from hostile values must fail cleanly too.
					if codec, err := compress.ForID(ack.Codec, uint(ack.RiceK)); err == nil {
						codec.Encode(out, nil)
					}
				}
			case FrameDecode:
				if req, err := ParseDecodeRequest(payload); err == nil {
					// The daemon decodes the payload with each negotiable
					// codec; arbitrary bytes must error or round-trip, not
					// panic.
					for _, id := range []uint8{compress.IDDense, compress.IDSparse, compress.IDRice} {
						codec, err := compress.ForID(id, 3)
						if err != nil {
							t.Fatalf("known codec ID %d rejected: %v", id, err)
						}
						if consumed, err := codec.Decode(req.Payload, out); err == nil {
							if consumed < 0 || consumed > len(req.Payload) {
								t.Fatalf("codec %d consumed %d of %d", id, consumed, len(req.Payload))
							}
						}
					}
				}
			case FrameResult:
				ParseResultFrame(payload)
			case FrameReject:
				ParseRejectFrame(payload)
			case FrameError:
				ParseErrorFrame(payload)
			}
		}
	})
}

// FuzzCheckedFrame feeds arbitrary bytes through the CRC32C frame reader:
// every outcome must be a clean success, a framing error, or ErrChecksum —
// never a panic — and a checksum failure must still carry the frame type
// and payload for best-effort sequence correlation. Frames the checked
// writer produced must always read back verbatim.
func FuzzCheckedFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4}) // n=4 < minimum checked frame
	var seed bytes.Buffer
	WriteFrameChecked(&seed, FrameDecode, DecodeRequest{Seq: 9, DeadlineNs: 1, Payload: []byte{7}}.AppendTo(nil))
	f.Add(seed.Bytes())
	corrupt := append([]byte(nil), seed.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := ReadFrameChecked(bytes.NewReader(data), 1<<16)
		if err == nil || errors.Is(err, ErrChecksum) {
			// The reader handed bytes back; re-writing them must reproduce
			// a stream the reader accepts cleanly (round-trip closure).
			var buf bytes.Buffer
			if werr := WriteFrameChecked(&buf, ft, payload); werr != nil {
				t.Fatalf("re-write of read frame failed: %v", werr)
			}
			ft2, p2, rerr := ReadFrameChecked(&buf, 1<<16)
			if rerr != nil || ft2 != ft || !bytes.Equal(p2, payload) {
				t.Fatalf("checked frame not closed under round trip: %v", rerr)
			}
		}
	})
}

// FuzzHelloAck drives the hello-ack parser over arbitrary bytes: parse
// must error or produce an ack that re-serialises to a form that parses
// back to the same ack, never panic.
func FuzzHelloAck(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 24))
	f.Add(HelloAck{Version: ProtocolVersion, Status: StatusOK, NumDetectors: 24,
		Codec: compress.IDRice, RiceK: 4, QueueDepth: 64,
		Features: FeatureChecksum | FeatureProbe, Fingerprint: ^uint64(0),
		FingerprintSet: []uint64{^uint64(0)}, Message: "m"}.AppendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ack, err := ParseHelloAck(data)
		if err != nil {
			return
		}
		back, err := ParseHelloAck(ack.AppendTo(nil))
		if err != nil || !back.equal(ack) {
			t.Fatalf("hello-ack round trip diverged: %+v vs %+v (%v)", back, ack, err)
		}
	})
}

// FuzzHelloFingerprintSet targets the hello-ack's variable-length
// fingerprint set. Hostile counts (claiming more digests than the payload
// holds), sets whose lead disagrees with the header fingerprint, and
// truncation anywhere inside the set must surface as errors — and every
// accepted parse must uphold the set invariants and survive a re-encode.
func FuzzHelloFingerprintSet(f *testing.F) {
	base := HelloAck{Version: ProtocolVersion, Status: StatusOK, NumDetectors: 24,
		Codec: compress.IDRice, RiceK: 4, QueueDepth: 64,
		Features: FeatureStream, Fingerprint: 0xA1B2C3D4E5F60718, Message: "m"}
	empty := base
	empty.FingerprintSet = nil
	f.Add(empty.AppendTo(nil))
	one := base
	one.FingerprintSet = []uint64{base.Fingerprint}
	f.Add(one.AppendTo(nil))
	draining := base
	draining.FingerprintSet = []uint64{base.Fingerprint, 0x1111111111111111, 0x2222222222222222}
	good := draining.AppendTo(nil)
	f.Add(good)
	f.Add(good[:len(good)-4]) // truncated mid-digest
	bad := draining
	bad.FingerprintSet = []uint64{0xDEAD, base.Fingerprint} // lead disagrees with header
	f.Add(bad.AppendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ack, err := ParseHelloAck(data)
		if err != nil {
			return
		}
		if len(ack.FingerprintSet) > 255 {
			t.Fatalf("parsed fingerprint set has %d entries, wire count is one byte", len(ack.FingerprintSet))
		}
		if len(ack.FingerprintSet) > 0 && ack.FingerprintSet[0] != ack.Fingerprint {
			t.Fatalf("accepted a set leading %016x under header %016x", ack.FingerprintSet[0], ack.Fingerprint)
		}
		back, err := ParseHelloAck(ack.AppendTo(nil))
		if err != nil || !back.equal(ack) {
			t.Fatalf("fingerprint-set ack round trip diverged: %+v vs %+v (%v)", back, ack, err)
		}
	})
}

// fakeConn is a net.Conn whose reads replay a fixed byte script and whose
// writes vanish — a stand-in for a hostile or broken server in client-side
// fuzzing.
type fakeConn struct {
	r *bytes.Reader
}

func (f *fakeConn) Read(b []byte) (int, error)         { return f.r.Read(b) }
func (f *fakeConn) Write(b []byte) (int, error)        { return len(b), nil }
func (f *fakeConn) Close() error                       { return nil }
func (f *fakeConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (f *fakeConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (f *fakeConn) SetDeadline(t time.Time) error      { return nil }
func (f *fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (f *fakeConn) SetWriteDeadline(t time.Time) error { return nil }

// FuzzClientHandshake drives NewClient against arbitrary server bytes in
// place of the Hello-ack: truncated acks, refusal statuses, hostile codec
// parameters and garbage frames must all surface as errors, never panics.
func FuzzClientHandshake(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	ok := HelloAck{Version: ProtocolVersion, Status: StatusOK, NumDetectors: 8,
		Codec: compress.IDDense, QueueDepth: 4}
	var seed bytes.Buffer
	WriteFrame(&seed, FrameHelloAck, ok.AppendTo(nil))
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, FrameHelloAck, HelloAck{Version: ProtocolVersion,
		Status: StatusOverloaded, Message: "connection limit (1) reached"}.AppendTo(nil))
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, FrameHelloAck, HelloAck{Version: ProtocolVersion, Status: StatusOK,
		NumDetectors: 1 << 30, Codec: 99, RiceK: 200}.AppendTo(nil))
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, FrameResult, ResultFrame{Seq: 1}.AppendTo(nil))
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewClientOptions(&fakeConn{r: bytes.NewReader(data)}, 5, compress.IDSparse,
			ClientOptions{HandshakeTimeout: -1})
		if err == nil {
			c.Close()
		}
	})
}

// FuzzClientResponse drives Client.Recv over arbitrary server bytes: the
// response parsers (ParseResultFrame, ParseRejectFrame, ParseErrorFrame)
// must reject malformed frames with an error, never a panic, regardless of
// what a compromised or buggy server streams back.
func FuzzClientResponse(f *testing.F) {
	f.Add([]byte{})
	var seed bytes.Buffer
	WriteFrame(&seed, FrameResult, ResultFrame{Seq: 1, ObsMask: 3, WeightMilli: 12,
		SojournNs: 900, Flags: FlagDegraded | FlagDeadlineMiss}.AppendTo(nil))
	WriteFrame(&seed, FrameReject, RejectFrame{Seq: 2, RetryAfterNs: 5000}.AppendTo(nil))
	WriteFrame(&seed, FrameError, ErrorFrame{Seq: 3, Code: StatusInternalError,
		Message: "decoder panicked"}.AppendTo(nil))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 2, byte(FrameResult), 1}) // truncated result payload
	f.Add([]byte{0, 0, 0, 1, 77})                   // unknown frame type

	f.Fuzz(func(t *testing.T, data []byte) {
		fc := &fakeConn{r: bytes.NewReader(data)}
		codec, err := compress.ForID(compress.IDSparse, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := &Client{conn: fc, br: bufio.NewReader(fc), codec: codec, n: 8}
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	})
}
