package server

import (
	"encoding/binary"
	"fmt"
)

// Resume-frame payloads (FeatureStreamResume): the reattach exchange a
// client runs on a new connection to pick up a parked session. Like every
// v3 frame they have one layout each; the session token and the per-commit
// ack watermark and seam they rely on travel in the stream-open-ack and
// stream-corrections payloads (stream_wire.go) whatever was negotiated.

// maxStreamSeamRows bounds the carried-seam height a peer may claim in a
// stream-open or stream-corrections payload, mirroring
// maxStreamRowsPerFrame: a hostile seam count must fail before any
// allocation. The session layer re-validates against the session's actual
// seam geometry (PadRounds × row words).
const maxStreamSeamRows = 4096

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
