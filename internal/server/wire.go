// Package server is the networked syndrome-decoding service: the paper's
// operating condition (§2) made literal. A control processor streams
// syndromes to a decode daemon over TCP; the daemon keeps per-distance
// decoder pools over shared immutable Global Weight Tables, a bounded
// request queue with batching and explicit backpressure, and per-request
// deadline accounting that reuses internal/realtime's 1 µs-budget
// semantics — so Figure 3's "software MWPM misses ~96% of deadlines" claim
// can be re-measured end-to-end across a real network hop.
//
// The wire protocol is length-prefixed binary frames. All multi-byte
// integers on the wire are little-endian, matching the .astc artifact
// layer (enforced by astrea-vet's endian analyzer). Every frame is
//
//	uint32 length (little endian, length of type byte + payload)
//	uint8  type
//	...    payload
//
// A stream opens with Hello/HelloAck, which negotiates the syndrome codec
// (internal/compress, by wire ID — the Table 7 bandwidth model on a real
// socket) and pins the stream to one code distance. After the handshake the
// client sends Decode frames and receives exactly one Result, Reject or
// Error frame per request, correlated by sequence number; responses may
// arrive out of order across a batched queue.
//
// Version 3 gives every frame exactly one payload layout. Feature bits,
// offered in the Hello and accepted in the HelloAck, select behaviour —
// checksummed framing, which frames are allowed, whether a streaming
// session is parked on disconnect — and never the shape of a payload.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// ProtocolVersion is the wire protocol version carried in the handshake.
// Version 2 flipped every multi-byte field from big- to little-endian so
// the wire matches the .astc artifact layer (a v1 peer's hello magic no
// longer matches). Version 3 dropped v2's per-connection choice between a
// legacy and an extended payload layout: every frame has one layout, and a
// v2 peer's Hello is refused with StatusBadVersion.
const ProtocolVersion = 3

// helloMagic guards against a non-astread peer; it spells "ASTR" when
// read as a little-endian uint32 (the bytes "RTSA" on the wire).
const helloMagic uint32 = 0x41535452

// DefaultMaxFrame bounds a frame's length prefix: larger claims are
// rejected before any allocation, so a hostile peer cannot make the daemon
// allocate unboundedly.
const DefaultMaxFrame = 1 << 20

// maxRetainedFrameBuf bounds the frame buffers a connection keeps between
// frames: a frame larger than this is read into (or written from) a buffer
// that is dropped afterwards, so a burst of huge frames cannot pin
// MaxFrameBytes of memory per idle connection.
const maxRetainedFrameBuf = 64 << 10

// resetFrameBuf empties a write buffer for the next frame, dropping it
// instead when it has grown past maxRetainedFrameBuf.
func resetFrameBuf(b []byte) []byte {
	if cap(b) > maxRetainedFrameBuf {
		return nil
	}
	return b[:0]
}

// FrameType discriminates wire frames.
type FrameType uint8

// Wire frame types.
const (
	FrameHello    FrameType = 1 // client → server: open a decode stream
	FrameHelloAck FrameType = 2 // server → client: accept/refuse the stream
	FrameDecode   FrameType = 3 // client → server: one syndrome
	FrameResult   FrameType = 4 // server → client: decode outcome
	FrameReject   FrameType = 5 // server → client: backpressure, retry later
	FrameError    FrameType = 6 // server → client: per-request failure
	FramePing     FrameType = 7 // client → server: health probe (FeatureProbe)
	FramePong     FrameType = 8 // server → client: probe echo

	// Streaming frames (FeatureStream). A StreamOpen switches the
	// connection into a windowed-streaming session: the client pushes
	// syndrome rounds with StreamRounds frames, the server answers with
	// in-order StreamCorrections commits, and StreamClose/StreamClosed end
	// the session (after which plain Decode frames are accepted again).
	FrameStreamOpen        FrameType = 9  // client → server: open a streaming session
	FrameStreamOpenAck     FrameType = 10 // server → client: accept/refuse + resolved window parameters
	FrameStreamRounds      FrameType = 11 // client → server: a batch of consecutive syndrome rounds
	FrameStreamCorrections FrameType = 12 // server → client: one committed window's correction
	FrameStreamClose       FrameType = 13 // client → server: end of the round stream
	FrameStreamClosed      FrameType = 14 // server → client: final stream summary

	// Session-resume frames (FeatureStreamResume). After redialing, a
	// client asks to reattach to a parked session by token; the server
	// replies with the rows-received watermark the client must replay from.
	FrameStreamResume  FrameType = 15 // client → server: reattach to a parked session
	FrameStreamResumed FrameType = 16 // server → client: accept/refuse the reattach
)

// Wire feature bits, offered by the client in the Hello and echoed back
// (intersected with what the server supports) in the HelloAck. A bit
// selects behaviour, never a payload layout: every frame parses the same
// way whatever was negotiated.
const (
	// FeatureChecksum adds a CRC32C trailer to every post-handshake frame
	// in both directions; a corrupt frame is rejected (StatusProtocolError)
	// instead of decoded into a silently wrong correction.
	FeatureChecksum uint32 = 1 << 0
	// FeatureProbe enables Ping/Pong health-probe frames on the stream, so
	// a client can verify liveness without spending a decode.
	FeatureProbe uint32 = 1 << 1
	// FeatureStream enables windowed streaming sessions (the FrameStream*
	// frames): unbounded syndrome-round streams decoded in overlapping
	// time windows and committed in round order. A peer that did not
	// negotiate the bit has stream frames refused as a protocol violation.
	FeatureStream uint32 = 1 << 2
	// FeatureStreamResume makes streaming sessions resumable: the server
	// issues a session token in the stream-open-ack, retains a parked
	// session for a TTL after its connection dies, and accepts
	// StreamResume/StreamResumed reattach exchanges. Without it the token
	// and TTL are zero and a session dies with its connection.
	FeatureStreamResume uint32 = 1 << 3

	// supportedFeatures is what this build negotiates.
	supportedFeatures = FeatureChecksum | FeatureProbe | FeatureStream | FeatureStreamResume
)

// Result flag bits.
const (
	FlagDeadlineMiss uint8 = 1 << 0 // sojourn exceeded the request deadline
	FlagRealTime     uint8 = 1 << 1 // decoder's real-time path (Result.RealTime)
	FlagSkipped      uint8 = 1 << 2 // decoder declined (Result.Skipped)
	// FlagDegraded marks a stream window answered by the exact MWPM
	// fallback because the window's own decoder skipped it (see
	// StreamCorrections.Flags). The request path never sets it: every
	// request is answered by its pool's decoder, late answers included.
	FlagDegraded uint8 = 1 << 3
	// FlagForcedSeam marks a streamed window commit whose cut was forced by
	// the window-length cap instead of placed in a quiet gap: trailing seam
	// rounds were carried into the next window for re-matching against the
	// committed frontier, so this commit's correction is approximate rather
	// than whole-shot-exact (see internal/stream).
	FlagForcedSeam uint8 = 1 << 4
)

// frameHeaderLen is the length prefix plus the type byte; checksumLen the
// CRC32C trailer of a checked frame.
const (
	frameHeaderLen = 5
	checksumLen    = 4
)

// castagnoli is the CRC32C polynomial table used by checked frames (the
// same polynomial iSCSI and ext4 use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a checked frame whose CRC32C trailer did not match
// its contents. The framing itself is intact — the length prefix was
// honoured — so the receiver may keep the stream and reject just this
// frame, but the payload must not be trusted.
var ErrChecksum = errors.New("server: frame checksum mismatch")

// beginFrame appends a frame header for type t whose length is still open;
// the payload is then appended straight onto the returned slice and
// endFrame closes the frame. Together they let a sender encode a payload in
// place, with no intermediate buffer.
func beginFrame(dst []byte, t FrameType) []byte {
	return append(dst, 0, 0, 0, 0, byte(t))
}

// endFrame closes the frame beginFrame opened at dst[start:]: it appends
// the CRC32C trailer over type byte and payload when checked, and fills in
// the length prefix.
func endFrame(dst []byte, start int, checked bool) []byte {
	if checked {
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+4:], castagnoli))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendFrame appends one whole frame — length, type, payload and, when
// checked, the CRC32C trailer — to dst, growing it at most once. Every frame
// either peer sends is assembled here, so it reaches the socket in a single
// Write and a timeout can never tear it.
func appendFrame(dst []byte, t FrameType, payload []byte, checked bool) []byte {
	dst = slices.Grow(dst, frameHeaderLen+len(payload)+checksumLen)
	start := len(dst)
	dst = append(beginFrame(dst, t), payload...)
	return endFrame(dst, start, checked)
}

// readFrame reads one frame from r into buf, growing it only when the frame
// does not fit, and returns the payload (aliasing the buffer) alongside the
// buffer to pass to the next call: a connection that does reads frames
// without allocating (a buffer grown past maxRetainedFrameBuf is not handed
// back). The length prefix is validated — non-empty, at most
// maxFrame (0 means DefaultMaxFrame), room for the trailer when checked —
// before any growth. On a checksum mismatch the frame type and payload come
// back alongside ErrChecksum so the caller can best-effort correlate a
// rejection (e.g. parse the sequence number) while knowing the bytes are
// corrupt.
func readFrame(r io.Reader, buf []byte, maxFrame int, checked bool) (t FrameType, payload, _ []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if cap(buf) < 64 {
		buf = make([]byte, 64)
	}
	// The length prefix is read into the body buffer (the body overwrites
	// it): a local array would escape through the io.Reader interface.
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	switch {
	case checked && n < 1+checksumLen:
		return 0, nil, buf, fmt.Errorf("server: checked frame of %d bytes is shorter than type + checksum", n)
	case n == 0:
		return 0, nil, buf, fmt.Errorf("server: zero-length frame")
	case int64(n) > int64(maxFrame):
		return 0, nil, buf, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	body, keep := buf[:cap(buf)], buf
	if int(n) > len(body) {
		body = make([]byte, n)
		if n <= maxRetainedFrameBuf {
			keep = body
		}
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, keep, fmt.Errorf("server: truncated frame: %w", err)
	}
	if checked {
		sum := binary.LittleEndian.Uint32(body[n-checksumLen:])
		body = body[:n-checksumLen]
		if crc32.Checksum(body, castagnoli) != sum {
			err = ErrChecksum
		}
	}
	return FrameType(body[0]), body[1:], keep, err
}

// WriteFrame writes one frame with a single Write. payload may be nil.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	_, err := w.Write(appendFrame(nil, t, payload, false))
	return err
}

// ReadFrame reads one frame into a fresh buffer, rejecting length prefixes
// of zero or beyond maxFrame (0 means DefaultMaxFrame) before allocating.
func ReadFrame(r io.Reader, maxFrame int) (FrameType, []byte, error) {
	t, payload, _, err := readFrame(r, nil, maxFrame, false)
	return t, payload, err
}

// WriteFrameChecked writes one frame with a CRC32C trailer over the type
// byte and payload. Used on streams that negotiated FeatureChecksum.
func WriteFrameChecked(w io.Writer, t FrameType, payload []byte) error {
	_, err := w.Write(appendFrame(nil, t, payload, true))
	return err
}

// ReadFrameChecked reads one CRC32C-trailed frame into a fresh buffer. On a
// checksum mismatch it returns the frame type and payload alongside
// ErrChecksum.
func ReadFrameChecked(r io.Reader, maxFrame int) (FrameType, []byte, error) {
	t, payload, _, err := readFrame(r, nil, maxFrame, true)
	return t, payload, err
}

// Hello is the client's stream-opening request: 12 bytes, ending with the
// offered feature-bit set (Feature*).
type Hello struct {
	Version  uint8
	Distance uint16
	Codec    uint8 // compress.ID*
	Features uint32
}

// AppendTo serialises the hello payload.
func (h Hello) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, helloMagic)
	dst = append(dst, h.Version)
	dst = binary.LittleEndian.AppendUint16(dst, h.Distance)
	dst = append(dst, h.Codec)
	return binary.LittleEndian.AppendUint32(dst, h.Features)
}

// errBadVersion reports a Hello whose protocol version this build does not
// speak.
var errBadVersion = errors.New("server: unsupported protocol version")

// ParseHello deserialises a hello payload. The version byte is checked
// before the length, so a peer of another version — whose Hello may be
// shorter, as v2's legacy 8-byte form is — gets errBadVersion rather than
// a malformed-payload error.
func ParseHello(b []byte) (Hello, error) {
	if len(b) < 5 {
		return Hello{}, fmt.Errorf("server: hello payload is %d bytes, want 12", len(b))
	}
	if magic := binary.LittleEndian.Uint32(b[:4]); magic != helloMagic {
		return Hello{}, fmt.Errorf("server: bad hello magic %#x", magic)
	}
	if b[4] != ProtocolVersion {
		return Hello{}, fmt.Errorf("%w: peer speaks v%d, this server v%d", errBadVersion, b[4], ProtocolVersion)
	}
	if len(b) != 12 {
		return Hello{}, fmt.Errorf("server: hello payload is %d bytes, want 12", len(b))
	}
	return Hello{
		Version:  b[4],
		Distance: binary.LittleEndian.Uint16(b[5:7]),
		Codec:    b[7],
		Features: binary.LittleEndian.Uint32(b[8:12]),
	}, nil
}

// HelloAck is the server's handshake reply. Status 0 accepts the stream;
// any other status refuses it with Message explaining why, after which the
// server closes the connection.
type HelloAck struct {
	Version      uint8
	Status       uint8
	NumDetectors uint32 // syndrome length for the pinned distance
	Codec        uint8  // the accepted codec ID
	RiceK        uint8  // Golomb–Rice parameter when Codec == IDRice
	QueueDepth   uint32 // the server's queue bound (backpressure threshold)
	// Features is the accepted feature-bit set. Fingerprint is the server's
	// current decoding-configuration digest for the pinned distance
	// (decodegraph.FingerprintOf over the DEM and quantised GWT), so a
	// client can refuse a server serving a different noise model.
	Features    uint32
	Fingerprint uint64
	// FingerprintSet is every fingerprint the server currently answers with
	// for the pinned distance, newest generation first (so FingerprintSet[0]
	// == Fingerprint). During a hot-swap drain both the new and the retiring
	// generation appear; a client may accept an answer signed by any
	// member of the set. Refusals carry none.
	FingerprintSet []uint64
	Message        string
}

// HelloAck status codes.
const (
	StatusOK              uint8 = 0
	StatusBadVersion      uint8 = 1
	StatusUnknownDistance uint8 = 2
	StatusUnknownCodec    uint8 = 3
	// StatusProtocolError refuses a stream whose first frame is not a
	// well-formed Hello (wrong frame type or unparseable payload) — a
	// protocol-sequence violation, distinct from a version mismatch. As an
	// ErrorFrame code it marks a per-request client fault (undecodable
	// syndrome payload).
	StatusProtocolError uint8 = 4
	// StatusInternalError is the ErrorFrame code for a server-side decode
	// failure (a decoder panicked mid-request). The request is terminal
	// but the stream stays usable; the fault was contained to this one
	// request.
	StatusInternalError uint8 = 5
	// StatusOverloaded refuses a new stream because the daemon is at its
	// concurrent-connection cap; retry against a less loaded endpoint or
	// after backing off.
	StatusOverloaded uint8 = 6
	// StatusUnknownSession refuses a StreamResume whose token names no
	// parked session (expired, evicted, a different replica, or never
	// issued). The client should fall back to a cold re-open from its
	// commit watermark.
	StatusUnknownSession uint8 = 7
)

// equal reports field-for-field equality (the fingerprint set makes the
// struct non-comparable with ==).
func (a HelloAck) equal(b HelloAck) bool {
	return slices.Equal(a.FingerprintSet, b.FingerprintSet) &&
		a.Version == b.Version && a.Status == b.Status &&
		a.NumDetectors == b.NumDetectors && a.Codec == b.Codec &&
		a.RiceK == b.RiceK && a.QueueDepth == b.QueueDepth &&
		a.Features == b.Features && a.Fingerprint == b.Fingerprint &&
		a.Message == b.Message
}

// AppendTo serialises the hello-ack payload: the fixed header, accepted
// features, the fingerprint, a u8-counted fingerprint set, then the
// message tail.
func (a HelloAck) AppendTo(dst []byte) []byte {
	dst = append(dst, a.Version, a.Status)
	dst = binary.LittleEndian.AppendUint32(dst, a.NumDetectors)
	dst = append(dst, a.Codec, a.RiceK)
	dst = binary.LittleEndian.AppendUint32(dst, a.QueueDepth)
	dst = binary.LittleEndian.AppendUint32(dst, a.Features)
	dst = binary.LittleEndian.AppendUint64(dst, a.Fingerprint)
	set := a.FingerprintSet
	if len(set) > 255 {
		set = set[:255] // u8 count; newest-first order keeps the live generation
	}
	dst = append(dst, uint8(len(set)))
	for _, fp := range set {
		dst = binary.LittleEndian.AppendUint64(dst, fp)
	}
	return append(dst, a.Message...)
}

// ParseHelloAck deserialises a hello-ack payload. A fingerprint count
// pointing past the payload, or a non-empty set whose first entry
// disagrees with the fingerprint field, is malformed.
func ParseHelloAck(b []byte) (HelloAck, error) {
	if len(b) < 25 {
		return HelloAck{}, fmt.Errorf("server: hello-ack payload is %d bytes, want ≥ 25", len(b))
	}
	a := HelloAck{
		Version:      b[0],
		Status:       b[1],
		NumDetectors: binary.LittleEndian.Uint32(b[2:6]),
		Codec:        b[6],
		RiceK:        b[7],
		QueueDepth:   binary.LittleEndian.Uint32(b[8:12]),
		Features:     binary.LittleEndian.Uint32(b[12:16]),
		Fingerprint:  binary.LittleEndian.Uint64(b[16:24]),
	}
	n, rest := int(b[24]), b[25:]
	if len(rest) < 8*n {
		return HelloAck{}, fmt.Errorf("server: hello-ack claims %d fingerprints in %d bytes", n, len(rest))
	}
	if n > 0 {
		a.FingerprintSet = make([]uint64, n)
		for i := range a.FingerprintSet {
			a.FingerprintSet[i] = binary.LittleEndian.Uint64(rest[8*i:])
		}
		if a.FingerprintSet[0] != a.Fingerprint {
			return HelloAck{}, fmt.Errorf("server: hello-ack fingerprint set leads with %016x, header says %016x",
				a.FingerprintSet[0], a.Fingerprint)
		}
	}
	a.Message = string(rest[8*n:])
	return a, nil
}

// DecodeRequest is one syndrome to decode. Payload is the stream codec's
// encoding of the syndrome; DeadlineNs is this request's real-time budget
// in nanoseconds from server-side arrival (0 means the server default).
type DecodeRequest struct {
	Seq        uint64
	DeadlineNs uint64
	Payload    []byte
}

// AppendTo serialises the decode payload.
func (d DecodeRequest) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, 16+len(d.Payload))
	dst = binary.LittleEndian.AppendUint64(dst, d.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, d.DeadlineNs)
	return append(dst, d.Payload...)
}

// ParseDecodeRequest deserialises a decode payload. The syndrome bytes are
// aliased, not copied.
func ParseDecodeRequest(b []byte) (DecodeRequest, error) {
	if len(b) < 16 {
		return DecodeRequest{}, fmt.Errorf("server: decode payload is %d bytes, want ≥ 16", len(b))
	}
	return DecodeRequest{
		Seq:        binary.LittleEndian.Uint64(b[:8]),
		DeadlineNs: binary.LittleEndian.Uint64(b[8:16]),
		Payload:    b[16:],
	}, nil
}

// ResultFrame is the server's answer to one accepted request. SojournNs is
// the server-side latency from frame arrival to decode completion —
// internal/realtime's on-time criterion applied to it yields the
// FlagDeadlineMiss bit. WeightMilli is the matching weight in
// milli-decades. Fingerprint is the decoding-configuration digest of the
// generation that produced the answer, so a client can attribute every
// correction to exact tables even across a mid-connection hot-swap.
type ResultFrame struct {
	Seq         uint64
	ObsMask     uint64
	WeightMilli uint64
	SojournNs   uint64
	Flags       uint8
	Fingerprint uint64
}

// AppendTo serialises the 41-byte result payload.
func (r ResultFrame) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, 41)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, r.ObsMask)
	dst = binary.LittleEndian.AppendUint64(dst, r.WeightMilli)
	dst = binary.LittleEndian.AppendUint64(dst, r.SojournNs)
	dst = append(dst, r.Flags)
	return binary.LittleEndian.AppendUint64(dst, r.Fingerprint)
}

// ParseResultFrame deserialises a result payload.
func ParseResultFrame(b []byte) (ResultFrame, error) {
	if len(b) != 41 {
		return ResultFrame{}, fmt.Errorf("server: result payload is %d bytes, want 41", len(b))
	}
	return ResultFrame{
		Seq:         binary.LittleEndian.Uint64(b[:8]),
		ObsMask:     binary.LittleEndian.Uint64(b[8:16]),
		WeightMilli: binary.LittleEndian.Uint64(b[16:24]),
		SojournNs:   binary.LittleEndian.Uint64(b[24:32]),
		Flags:       b[32],
		Fingerprint: binary.LittleEndian.Uint64(b[33:41]),
	}, nil
}

// RejectFrame is the server's backpressure answer: the queue was full when
// the request arrived, nothing was decoded, and the client should retry no
// sooner than RetryAfterNs from receipt.
type RejectFrame struct {
	Seq          uint64
	RetryAfterNs uint64
}

// AppendTo serialises the reject payload.
func (r RejectFrame) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, 16)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	return binary.LittleEndian.AppendUint64(dst, r.RetryAfterNs)
}

// ParseRejectFrame deserialises a reject payload.
func ParseRejectFrame(b []byte) (RejectFrame, error) {
	if len(b) != 16 {
		return RejectFrame{}, fmt.Errorf("server: reject payload is %d bytes, want 16", len(b))
	}
	return RejectFrame{
		Seq:          binary.LittleEndian.Uint64(b[:8]),
		RetryAfterNs: binary.LittleEndian.Uint64(b[8:16]),
	}, nil
}

// ErrorFrame reports a per-request failure. Code classifies it with the
// Status* constants: StatusProtocolError for client faults (undecodable
// payload), StatusInternalError for contained server faults (a decoder
// panic). Either way the request is terminal and the stream stays usable.
type ErrorFrame struct {
	Seq     uint64
	Code    uint8
	Message string
}

// AppendTo serialises the error payload.
func (e ErrorFrame) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, 9+len(e.Message))
	dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	dst = append(dst, e.Code)
	return append(dst, e.Message...)
}

// ParseErrorFrame deserialises an error payload.
func ParseErrorFrame(b []byte) (ErrorFrame, error) {
	if len(b) < 9 {
		return ErrorFrame{}, fmt.Errorf("server: error payload is %d bytes, want ≥ 9", len(b))
	}
	return ErrorFrame{Seq: binary.LittleEndian.Uint64(b[:8]), Code: b[8], Message: string(b[9:])}, nil
}

// AppendPing serialises a ping/pong payload: an opaque nonce the server
// echoes verbatim, so a probe answer can be matched to its probe.
func AppendPing(dst []byte, nonce uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, nonce)
}

// ParsePing deserialises a ping/pong payload.
func ParsePing(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("server: ping payload is %d bytes, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}
