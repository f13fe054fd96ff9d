package server

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Resume-frame payloads (FeatureStreamResume). On a connection that
// negotiated the resume bit, the streaming session handshake frames use
// the extended forms below (the HelloAck/HelloAckExt pattern): the legacy
// layout rides in front byte for byte, resume fields follow, and any
// variable tail (seam words, message) stays last. Legacy peers never see
// an extended payload, so the v2 stream wire is unchanged for them.

// maxStreamSeamRows bounds the carried-seam height a peer may claim in an
// extended stream-open or stream-corrections payload, mirroring
// maxStreamRowsPerFrame: a hostile seam count must fail before any
// allocation. The session layer re-validates against the session's actual
// seam geometry (PadRounds × row words).
const maxStreamSeamRows = 4096

// StreamOpenExt is the resume-mode stream-open: the legacy request plus
// the watermark state needed to re-open a stream mid-way (a cold resume
// after the server lost the session). A fresh stream leaves the resume
// fields zero. StartRow is the absolute round index the replayed stream
// starts at (the client's commit watermark), NextSeq the window sequence
// the first cut must carry, and CarrySeam/Carry the resolved seam of the
// predecessor's trailing forced commit (StreamCorrectionsExt.Carry),
// CarrySeam rows of row-words serialised little-endian.
type StreamOpenExt struct {
	StreamOpen
	StartRow  uint64
	NextSeq   uint64
	CarrySeam uint16
	Carry     []byte
}

// AppendTo serialises the extended stream-open payload.
func (o StreamOpenExt) AppendTo(dst []byte) []byte {
	dst = o.StreamOpen.AppendTo(dst)
	dst = binary.LittleEndian.AppendUint64(dst, o.StartRow)
	dst = binary.LittleEndian.AppendUint64(dst, o.NextSeq)
	dst = binary.LittleEndian.AppendUint16(dst, o.CarrySeam)
	return append(dst, o.Carry...)
}

// ParseStreamOpenExt deserialises an extended stream-open payload. The
// carry bytes are aliased, not copied.
func ParseStreamOpenExt(b []byte) (StreamOpenExt, error) {
	if len(b) < 30 {
		return StreamOpenExt{}, fmt.Errorf("server: extended stream-open payload is %d bytes, want ≥ 30", len(b))
	}
	open, err := ParseStreamOpen(b[:12])
	if err != nil {
		return StreamOpenExt{}, err
	}
	o := StreamOpenExt{
		StreamOpen: open,
		StartRow:   binary.LittleEndian.Uint64(b[12:20]),
		NextSeq:    binary.LittleEndian.Uint64(b[20:28]),
		CarrySeam:  binary.LittleEndian.Uint16(b[28:30]),
		Carry:      b[30:],
	}
	if err := checkSeam(o.CarrySeam, o.Carry, "stream-open"); err != nil {
		return StreamOpenExt{}, err
	}
	return o, nil
}

// StreamOpenAckExt is the resume-mode stream-open-ack: the legacy resolved
// parameters plus the server-issued session token and the park TTL the
// token stays resumable for after a disconnect.
type StreamOpenAckExt struct {
	StreamOpenAck
	SessionToken uint64
	ResumeTTLMs  uint32
}

// AppendTo serialises the extended stream-open-ack payload.
func (a StreamOpenAckExt) AppendTo(dst []byte) []byte {
	fixed := a.StreamOpenAck
	msg := fixed.Message
	fixed.Message = ""
	dst = fixed.AppendTo(dst)
	dst = binary.LittleEndian.AppendUint64(dst, a.SessionToken)
	dst = binary.LittleEndian.AppendUint32(dst, a.ResumeTTLMs)
	return append(dst, msg...)
}

// ParseStreamOpenAckExt deserialises an extended stream-open-ack payload.
func ParseStreamOpenAckExt(b []byte) (StreamOpenAckExt, error) {
	if len(b) < 27 {
		return StreamOpenAckExt{}, fmt.Errorf("server: extended stream-open-ack payload is %d bytes, want ≥ 27", len(b))
	}
	ack, err := ParseStreamOpenAck(b[:15])
	if err != nil {
		return StreamOpenAckExt{}, err
	}
	a := StreamOpenAckExt{
		StreamOpenAck: ack,
		SessionToken:  binary.LittleEndian.Uint64(b[15:23]),
		ResumeTTLMs:   binary.LittleEndian.Uint32(b[23:27]),
	}
	a.Message = string(b[27:])
	return a, nil
}

// StreamCorrectionsExt is the resume-mode commit: the legacy commit plus
// the ack watermark both sides agree on (AckRows — the server has received
// every round below it, contiguously) and, for forced commits, the
// resolved seam the committed matching left behind (CarrySeam rows of
// row-words, little-endian). A client that later re-opens cold from this
// commit's watermark must pass CarrySeam/Carry back in its extended
// stream-open, which is what makes a mid-seam resume bit-identical.
type StreamCorrectionsExt struct {
	StreamCorrections
	AckRows   uint64
	CarrySeam uint16
	Carry     []byte
}

// AppendTo serialises the extended stream-corrections payload.
func (c StreamCorrectionsExt) AppendTo(dst []byte) []byte {
	dst = c.StreamCorrections.AppendTo(slices.Grow(dst, 53+len(c.Carry)))
	dst = binary.LittleEndian.AppendUint64(dst, c.AckRows)
	dst = binary.LittleEndian.AppendUint16(dst, c.CarrySeam)
	return append(dst, c.Carry...)
}

// ParseStreamCorrectionsExt deserialises an extended stream-corrections
// payload. The carry bytes are aliased, not copied.
func ParseStreamCorrectionsExt(b []byte) (StreamCorrectionsExt, error) {
	if len(b) < 53 {
		return StreamCorrectionsExt{}, fmt.Errorf("server: extended stream-corrections payload is %d bytes, want ≥ 53", len(b))
	}
	cm, err := ParseStreamCorrections(b[:43])
	if err != nil {
		return StreamCorrectionsExt{}, err
	}
	c := StreamCorrectionsExt{
		StreamCorrections: cm,
		AckRows:           binary.LittleEndian.Uint64(b[43:51]),
		CarrySeam:         binary.LittleEndian.Uint16(b[51:53]),
		Carry:             b[53:],
	}
	if err := checkSeam(c.CarrySeam, c.Carry, "stream-corrections"); err != nil {
		return StreamCorrectionsExt{}, err
	}
	return c, nil
}

// StreamResume asks the server to reattach this connection to the parked
// session Token. AckRow is the client's commit watermark (every round
// below it is covered by a commit the client received — the server
// re-delivers retained commits from AckRow on); SentRows is how many
// rounds the client had sent, so the server can sanity-check its own
// watermark against the client's.
type StreamResume struct {
	Token    uint64
	AckRow   uint64
	SentRows uint64
}

// AppendTo serialises the stream-resume payload.
func (r StreamResume) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Token)
	dst = binary.LittleEndian.AppendUint64(dst, r.AckRow)
	return binary.LittleEndian.AppendUint64(dst, r.SentRows)
}

// ParseStreamResume deserialises a stream-resume payload.
func ParseStreamResume(b []byte) (StreamResume, error) {
	if len(b) != 24 {
		return StreamResume{}, fmt.Errorf("server: stream-resume payload is %d bytes, want 24", len(b))
	}
	return StreamResume{
		Token:    binary.LittleEndian.Uint64(b[:8]),
		AckRow:   binary.LittleEndian.Uint64(b[8:16]),
		SentRows: binary.LittleEndian.Uint64(b[16:24]),
	}, nil
}

// StreamResumed answers a StreamResume. Status 0 reattaches the session:
// RowsReceived is the server's contiguous rows-received watermark (the
// client replays its sent-but-unreceived tail from there), and Closed is 1
// when the server had already received the session's StreamClose (the
// client must not replay rounds or close again — only drain). Any other
// status refuses the reattach (StatusUnknownSession for a token the
// server no longer holds) and the connection stays in plain decode mode.
type StreamResumed struct {
	Status       uint8
	RowsReceived uint64
	Closed       uint8
	Message      string
}

// AppendTo serialises the stream-resumed payload.
func (r StreamResumed) AppendTo(dst []byte) []byte {
	dst = append(dst, r.Status)
	dst = binary.LittleEndian.AppendUint64(dst, r.RowsReceived)
	dst = append(dst, r.Closed)
	return append(dst, r.Message...)
}

// ParseStreamResumed deserialises a stream-resumed payload.
func ParseStreamResumed(b []byte) (StreamResumed, error) {
	if len(b) < 10 {
		return StreamResumed{}, fmt.Errorf("server: stream-resumed payload is %d bytes, want ≥ 10", len(b))
	}
	return StreamResumed{
		Status:       b[0],
		RowsReceived: binary.LittleEndian.Uint64(b[1:9]),
		Closed:       b[9],
		Message:      string(b[10:]),
	}, nil
}

// checkSeam validates a seam declaration: the carry bytes must be whole
// 64-bit words, consistent with a non-zero seam row count under the cap.
func checkSeam(seam uint16, carry []byte, frame string) error {
	if seam == 0 {
		if len(carry) != 0 {
			return fmt.Errorf("server: %s payload carries %d seam bytes with a zero seam", frame, len(carry))
		}
		return nil
	}
	if int(seam) > maxStreamSeamRows {
		return fmt.Errorf("server: %s payload claims a %d-row seam, cap is %d", frame, seam, maxStreamSeamRows)
	}
	if len(carry) == 0 || len(carry)%(int(seam)*8) != 0 {
		return fmt.Errorf("server: %s payload carries %d seam bytes for a %d-row seam (want a whole number of 64-bit words per row)",
			frame, len(carry), seam)
	}
	return nil
}
