package server

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Streaming-frame payloads (FeatureStream). The frames follow the same
// conventions as the rest of the protocol: little-endian multi-byte
// integers, AppendTo/Parse pairs, and strict length validation so hostile
// payloads fail before any allocation or decode work.

// maxStreamRowsPerFrame bounds the Count field of one StreamRounds frame:
// a batch larger than this is a protocol error regardless of the byte
// budget, so a hostile count cannot drive a huge row loop off a tiny
// payload.
const maxStreamRowsPerFrame = 4096

// StreamOpen asks the server to switch the connection into a windowed
// streaming session on the handshake's pinned distance. All window
// parameters are requests; zero means "server default". The server replies
// with a StreamOpenAck carrying the resolved values.
//
// A fresh stream leaves the re-open fields zero. A cold re-open — the
// client restarts a lost session from its commit watermark — sets StartRow
// to the absolute round the replayed stream starts at, NextSeq to the
// window sequence the first cut must carry, and CarrySeam/Carry to the
// resolved seam of the predecessor's trailing forced commit
// (StreamCorrections.Carry): CarrySeam rows of row words, little-endian.
type StreamOpen struct {
	// WindowRounds caps a window's committed height in rounds before the
	// planner forces a cut (clamped server-side).
	WindowRounds uint16
	// GapRounds is the quiet-gap length that triggers an exact cut; zero
	// lets the server derive the provably safe gap from the weight table.
	GapRounds uint16
	// PadRounds is the temporal padding applied at open window edges.
	PadRounds uint16
	// RowBudgetNs is the per-round deadline budget used for commit-latency
	// accounting (a window of R rounds must commit within R×budget).
	RowBudgetNs uint32
	// MaxInflight is the session's commit backlog: commits decoded but not
	// yet taken by the connection before the pipeline stops reading rounds.
	MaxInflight uint16

	StartRow  uint64
	NextSeq   uint64
	CarrySeam uint16
	Carry     []byte
}

// AppendTo serialises the stream-open payload.
func (o StreamOpen) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, o.WindowRounds)
	dst = binary.LittleEndian.AppendUint16(dst, o.GapRounds)
	dst = binary.LittleEndian.AppendUint16(dst, o.PadRounds)
	dst = binary.LittleEndian.AppendUint32(dst, o.RowBudgetNs)
	dst = binary.LittleEndian.AppendUint16(dst, o.MaxInflight)
	dst = binary.LittleEndian.AppendUint64(dst, o.StartRow)
	dst = binary.LittleEndian.AppendUint64(dst, o.NextSeq)
	dst = binary.LittleEndian.AppendUint16(dst, o.CarrySeam)
	return append(dst, o.Carry...)
}

// ParseStreamOpen deserialises a stream-open payload. The carry bytes are
// aliased, not copied.
func ParseStreamOpen(b []byte) (StreamOpen, error) {
	if len(b) < 30 {
		return StreamOpen{}, fmt.Errorf("server: stream-open payload is %d bytes, want ≥ 30", len(b))
	}
	o := StreamOpen{
		WindowRounds: binary.LittleEndian.Uint16(b[0:2]),
		GapRounds:    binary.LittleEndian.Uint16(b[2:4]),
		PadRounds:    binary.LittleEndian.Uint16(b[4:6]),
		RowBudgetNs:  binary.LittleEndian.Uint32(b[6:10]),
		MaxInflight:  binary.LittleEndian.Uint16(b[10:12]),
		StartRow:     binary.LittleEndian.Uint64(b[12:20]),
		NextSeq:      binary.LittleEndian.Uint64(b[20:28]),
		CarrySeam:    binary.LittleEndian.Uint16(b[28:30]),
		Carry:        b[30:],
	}
	if err := checkSeam(o.CarrySeam, o.Carry, "stream-open"); err != nil {
		return StreamOpen{}, err
	}
	return o, nil
}

// StreamOpenAck accepts (Status 0) or refuses a streaming session. On
// acceptance the fixed fields echo the resolved window parameters the
// session will actually run with. SessionToken and ResumeTTLMs name the
// session for a later StreamResume and how long it stays parked after a
// disconnect; both are zero unless the connection negotiated
// FeatureStreamResume.
type StreamOpenAck struct {
	Status       uint8
	WindowRounds uint16
	GapRounds    uint16
	PadRounds    uint16
	RowBudgetNs  uint32
	// MaxInflight echoes the resolved commit backlog (the default when the
	// open asked for zero).
	MaxInflight uint16
	// RowBits is the per-round detector count: every StreamRounds row must
	// encode exactly this many bits with the stream's negotiated codec.
	RowBits      uint16
	SessionToken uint64
	ResumeTTLMs  uint32
	Message      string
}

// AppendTo serialises the stream-open-ack payload.
func (a StreamOpenAck) AppendTo(dst []byte) []byte {
	dst = append(dst, a.Status)
	dst = binary.LittleEndian.AppendUint16(dst, a.WindowRounds)
	dst = binary.LittleEndian.AppendUint16(dst, a.GapRounds)
	dst = binary.LittleEndian.AppendUint16(dst, a.PadRounds)
	dst = binary.LittleEndian.AppendUint32(dst, a.RowBudgetNs)
	dst = binary.LittleEndian.AppendUint16(dst, a.MaxInflight)
	dst = binary.LittleEndian.AppendUint16(dst, a.RowBits)
	dst = binary.LittleEndian.AppendUint64(dst, a.SessionToken)
	dst = binary.LittleEndian.AppendUint32(dst, a.ResumeTTLMs)
	return append(dst, a.Message...)
}

// ParseStreamOpenAck deserialises a stream-open-ack payload.
func ParseStreamOpenAck(b []byte) (StreamOpenAck, error) {
	if len(b) < 27 {
		return StreamOpenAck{}, fmt.Errorf("server: stream-open-ack payload is %d bytes, want ≥ 27", len(b))
	}
	return StreamOpenAck{
		Status:       b[0],
		WindowRounds: binary.LittleEndian.Uint16(b[1:3]),
		GapRounds:    binary.LittleEndian.Uint16(b[3:5]),
		PadRounds:    binary.LittleEndian.Uint16(b[5:7]),
		RowBudgetNs:  binary.LittleEndian.Uint32(b[7:11]),
		MaxInflight:  binary.LittleEndian.Uint16(b[11:13]),
		RowBits:      binary.LittleEndian.Uint16(b[13:15]),
		SessionToken: binary.LittleEndian.Uint64(b[15:23]),
		ResumeTTLMs:  binary.LittleEndian.Uint32(b[23:27]),
		Message:      string(b[27:]),
	}, nil
}

// StreamRounds carries Count consecutive syndrome rounds starting at
// absolute round index FirstRow. Rows encodes each round's detector bits
// (one round = one row of the detector lattice) back to back with the
// stream's negotiated codec; rounds must arrive in order with no gaps, so
// FirstRow always equals the count of rounds already streamed.
type StreamRounds struct {
	FirstRow uint64
	Count    uint16
	Rows     []byte
}

// AppendTo serialises the stream-rounds payload.
func (r StreamRounds) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, 10+len(r.Rows))
	dst = binary.LittleEndian.AppendUint64(dst, r.FirstRow)
	dst = binary.LittleEndian.AppendUint16(dst, r.Count)
	return append(dst, r.Rows...)
}

// ParseStreamRounds deserialises a stream-rounds payload. The row bytes
// are aliased, not copied; the per-row codec decode happens at the session
// layer, which knows the round width.
func ParseStreamRounds(b []byte) (StreamRounds, error) {
	if len(b) < 10 {
		return StreamRounds{}, fmt.Errorf("server: stream-rounds payload is %d bytes, want ≥ 10", len(b))
	}
	r := StreamRounds{
		FirstRow: binary.LittleEndian.Uint64(b[:8]),
		Count:    binary.LittleEndian.Uint16(b[8:10]),
		Rows:     b[10:],
	}
	if r.Count == 0 {
		return StreamRounds{}, fmt.Errorf("server: stream-rounds frame carries zero rounds")
	}
	if int(r.Count) > maxStreamRowsPerFrame {
		return StreamRounds{}, fmt.Errorf("server: stream-rounds frame claims %d rounds, cap is %d",
			r.Count, maxStreamRowsPerFrame)
	}
	return r, nil
}

// StreamCorrections is one committed window: the correction (observable
// mask and matching weight) for rounds [FirstRow, FirstRow+RowCount), plus
// commit-latency accounting. Windows commit in round order, each round
// exactly once.
//
// AckRows is the server's contiguous rows-received watermark when the
// commit was written: every round below it has arrived, so the client may
// release its replay buffer there. A forced commit also carries the
// resolved seam its matching left behind (CarrySeam rows of row words,
// little-endian); a client that later re-opens cold from this commit's
// watermark passes CarrySeam/Carry back in its StreamOpen, which is what
// makes a mid-seam re-open bit-identical.
type StreamCorrections struct {
	WindowSeq   uint64
	FirstRow    uint64
	RowCount    uint16
	ObsMask     uint64
	WeightMilli uint64
	SojournNs   uint64
	// Flags uses the result-flag bits: FlagDeadlineMiss when the commit
	// overran RowCount × the session's row budget, FlagForcedSeam when the
	// cut was forced rather than placed in a quiet gap, FlagDegraded when
	// the window was answered by the MWPM fallback after its decoder
	// skipped it.
	Flags     uint8
	AckRows   uint64
	CarrySeam uint16
	Carry     []byte
}

// AppendTo serialises the stream-corrections payload.
func (c StreamCorrections) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, 53+len(c.Carry))
	dst = binary.LittleEndian.AppendUint64(dst, c.WindowSeq)
	dst = binary.LittleEndian.AppendUint64(dst, c.FirstRow)
	dst = binary.LittleEndian.AppendUint16(dst, c.RowCount)
	dst = binary.LittleEndian.AppendUint64(dst, c.ObsMask)
	dst = binary.LittleEndian.AppendUint64(dst, c.WeightMilli)
	dst = binary.LittleEndian.AppendUint64(dst, c.SojournNs)
	dst = append(dst, c.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, c.AckRows)
	dst = binary.LittleEndian.AppendUint16(dst, c.CarrySeam)
	return append(dst, c.Carry...)
}

// ParseStreamCorrections deserialises a stream-corrections payload. The
// carry bytes are aliased, not copied.
func ParseStreamCorrections(b []byte) (StreamCorrections, error) {
	if len(b) < 53 {
		return StreamCorrections{}, fmt.Errorf("server: stream-corrections payload is %d bytes, want ≥ 53", len(b))
	}
	c := StreamCorrections{
		WindowSeq:   binary.LittleEndian.Uint64(b[:8]),
		FirstRow:    binary.LittleEndian.Uint64(b[8:16]),
		RowCount:    binary.LittleEndian.Uint16(b[16:18]),
		ObsMask:     binary.LittleEndian.Uint64(b[18:26]),
		WeightMilli: binary.LittleEndian.Uint64(b[26:34]),
		SojournNs:   binary.LittleEndian.Uint64(b[34:42]),
		Flags:       b[42],
		AckRows:     binary.LittleEndian.Uint64(b[43:51]),
		CarrySeam:   binary.LittleEndian.Uint16(b[51:53]),
		Carry:       b[53:],
	}
	if err := checkSeam(c.CarrySeam, c.Carry, "stream-corrections"); err != nil {
		return StreamCorrections{}, err
	}
	return c, nil
}

// StreamClosed is the server's final summary after a clean StreamClose:
// cumulative totals over every committed window, so the client can check
// the stream's aggregate correction (the XOR of all window ObsMasks)
// without tracking each commit itself.
type StreamClosed struct {
	TotalRows      uint64
	Windows        uint64
	ForcedCuts     uint64
	ObsMask        uint64
	WeightMilli    uint64
	DeadlineMisses uint64
	Flags          uint8
}

// AppendTo serialises the stream-closed payload.
func (c StreamClosed) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.TotalRows)
	dst = binary.LittleEndian.AppendUint64(dst, c.Windows)
	dst = binary.LittleEndian.AppendUint64(dst, c.ForcedCuts)
	dst = binary.LittleEndian.AppendUint64(dst, c.ObsMask)
	dst = binary.LittleEndian.AppendUint64(dst, c.WeightMilli)
	dst = binary.LittleEndian.AppendUint64(dst, c.DeadlineMisses)
	return append(dst, c.Flags)
}

// ParseStreamClosed deserialises a stream-closed payload.
func ParseStreamClosed(b []byte) (StreamClosed, error) {
	if len(b) != 49 {
		return StreamClosed{}, fmt.Errorf("server: stream-closed payload is %d bytes, want 49", len(b))
	}
	return StreamClosed{
		TotalRows:      binary.LittleEndian.Uint64(b[:8]),
		Windows:        binary.LittleEndian.Uint64(b[8:16]),
		ForcedCuts:     binary.LittleEndian.Uint64(b[16:24]),
		ObsMask:        binary.LittleEndian.Uint64(b[24:32]),
		WeightMilli:    binary.LittleEndian.Uint64(b[32:40]),
		DeadlineMisses: binary.LittleEndian.Uint64(b[40:48]),
		Flags:          b[48],
	}, nil
}
