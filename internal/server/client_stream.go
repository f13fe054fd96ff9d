package server

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"astrea/internal/bitvec"
)

// StreamOptions requests window parameters for a streaming session. Every
// field is a request: zero asks for the server default, and the server may
// clamp any value — the resolved parameters come back in Stream.Params.
type StreamOptions struct {
	WindowRounds int
	GapRounds    int
	PadRounds    int
	RowBudgetNs  uint32
	MaxInflight  int
}

// Stream is one open windowed streaming session on a Client. SendRounds
// and Recv are independently locked (the client's write and read halves),
// so one goroutine can feed rounds while another drains commits — the
// open-loop shape. While a stream is open the owning Client must not be
// used for Decode: the server is in streaming mode and the read
// half belongs to commit frames.
//
// Rounds frames leave per batch, not per SendRounds call: while the rounds
// already written hold enough uncommitted work to force a commit, new
// rounds queue, and the queue leaves in one write when Recv is about to
// block (see SendRounds). A sender that keeps more than a window of rounds
// in flight therefore pays one write per received commit burst, not one per
// call, and so does the daemon, which queues commits the same way. On the
// 2-core reference box that took the svc_stream_d5 benchmark from 1.00 M to
// 2.06 M rounds per second and its p50 commit latency from 660 to 400 µs
// (medians of 10 alternating runs).
type Stream struct {
	c *Client
	// params is the server's stream-open-ack: the resolved window
	// parameters plus, on a resumable session, its token and park TTL.
	params StreamOpenAck
	// hold bounds the rounds the server's planner can keep uncommitted
	// (holdRows of params).
	hold uint64

	sent       uint64 // rounds shipped (the next frame's FirstRow)
	closedSend bool
	enc        []byte
	// committed is the highest FirstRow+RowCount Recv has returned (the
	// open's start or the resume's ack watermark before any): written by
	// Recv, read by SendRounds.
	committed atomic.Uint64
}

// holdRows is the most rounds a session with these resolved parameters can
// hold pushed but uncommitted once every window it has cut is committed.
// The planner cuts by the time its buffer reaches WindowRounds (a clean cut
// waits for a carried seam prefix to clear, but never past that cap); the
// sum of the three is a margin above it.
func holdRows(ack StreamOpenAck) uint64 {
	return uint64(ack.WindowRounds) + uint64(ack.PadRounds) + uint64(ack.GapRounds)
}

// newStream starts the client side of an accepted session: rounds continue
// from sent, and every round below committed is covered by a commit.
func newStream(c *Client, params StreamOpenAck, sent, committed uint64) *Stream {
	st := &Stream{c: c, params: params, hold: holdRows(params), sent: sent}
	st.committed.Store(committed)
	return st
}

// OpenStream negotiates a streaming session. It requires a handshake that
// accepted FeatureStream (offer it in ClientOptions.Features); a server
// that declined the bit fails here cleanly instead of being sent frames it
// refuses.
func (c *Client) OpenStream(o StreamOptions) (*Stream, error) {
	return c.OpenStreamAt(o, 0, 0, 0, nil)
}

// OpenStreamAt re-opens a stream mid-way (a cold resume): the new session
// starts at absolute round startRow with window sequence nextSeq, seeded
// with the resolved seam of the predecessor's trailing forced commit
// (carrySeam rows of little-endian row words, exactly as the last
// commit's CarrySeam/Carry reported them — both zero when the
// predecessor's last commit was an exact cut). Rounds sent on the returned
// stream continue from startRow, and its first commit abuts the
// predecessor's last. Requires a handshake that accepted FeatureStream.
func (c *Client) OpenStreamAt(o StreamOptions, startRow, nextSeq uint64, carrySeam uint16, carry []byte) (*Stream, error) {
	if c.features&FeatureStream == 0 {
		return nil, fmt.Errorf("server: stream did not negotiate streaming frames")
	}
	// rmu before wmu: the read half takes wmu (TryLock) to flush.
	c.rmu.Lock()
	defer c.rmu.Unlock()
	req := StreamOpen{
		WindowRounds: uint16(o.WindowRounds),
		GapRounds:    uint16(o.GapRounds),
		PadRounds:    uint16(o.PadRounds),
		RowBudgetNs:  o.RowBudgetNs,
		MaxInflight:  uint16(o.MaxInflight),
		StartRow:     startRow,
		NextSeq:      nextSeq,
		CarrySeam:    carrySeam,
		Carry:        carry,
	}
	if c.callTimeout > 0 {
		//lint:allow errwrap open-only path: an unarmable deadline surfaces as the exchange's own write/read failure just below
		c.conn.SetDeadline(time.Now().Add(c.callTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	c.wmu.Lock()
	err := c.writeFrame(FrameStreamOpen, req.AppendTo(nil))
	c.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	t, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	if t != FrameStreamOpenAck {
		return nil, fmt.Errorf("server: expected stream-open-ack, got frame type %d", t)
	}
	ack, err := ParseStreamOpenAck(payload)
	if err != nil {
		return nil, err
	}
	st := newStream(c, ack, startRow, startRow)
	if st.params.Status != StatusOK {
		return nil, fmt.Errorf("server: stream refused (status %d): %s", st.params.Status, st.params.Message)
	}
	if st.params.RowBits == 0 {
		return nil, fmt.Errorf("server: stream-open-ack advertises zero-width rows")
	}
	return st, nil
}

// ResumeStream reattaches to a parked session by token. ackRow is the
// client's commit watermark (every round below it is covered by a received
// commit) and sentRows how many rounds it had shipped. On success the
// returned Stream continues the session: its send watermark is the server's
// RowsReceived (replay rounds from there), and unacknowledged commits are
// re-delivered through Recv. A clean refusal — unknown or expired token,
// stale watermark — returns a nil Stream with the refusing StreamResumed
// and a nil error; the connection stays usable and the caller re-opens cold
// with OpenStreamAt. Requires a handshake that accepted FeatureStreamResume.
func (c *Client) ResumeStream(token, ackRow, sentRows uint64, params StreamOpenAck) (*Stream, StreamResumed, error) {
	if c.features&FeatureStream == 0 || c.features&FeatureStreamResume == 0 {
		return nil, StreamResumed{}, fmt.Errorf("server: stream did not negotiate resume frames")
	}
	// rmu before wmu: the read half takes wmu (TryLock) to flush.
	c.rmu.Lock()
	defer c.rmu.Unlock()
	req := StreamResume{Token: token, AckRow: ackRow, SentRows: sentRows}
	if c.callTimeout > 0 {
		//lint:allow errwrap resume-only path: an unarmable deadline surfaces as the exchange's own write/read failure just below
		c.conn.SetDeadline(time.Now().Add(c.callTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	c.wmu.Lock()
	err := c.writeFrame(FrameStreamResume, req.AppendTo(nil))
	c.wmu.Unlock()
	if err != nil {
		return nil, StreamResumed{}, err
	}
	t, payload, err := c.readFrame()
	if err != nil {
		return nil, StreamResumed{}, err
	}
	if t != FrameStreamResumed {
		return nil, StreamResumed{}, fmt.Errorf("server: expected stream-resumed, got frame type %d", t)
	}
	res, err := ParseStreamResumed(payload)
	if err != nil {
		return nil, StreamResumed{}, err
	}
	if res.Status != StatusOK {
		return nil, res, nil
	}
	params.SessionToken = token
	st := newStream(c, params, res.RowsReceived, ackRow)
	// A session the server already saw close cannot take more rounds; the
	// resumed stream only drains.
	st.closedSend = res.Closed != 0
	return st, res, nil
}

// Params returns the server-resolved session parameters.
func (s *Stream) Params() StreamOpenAck { return s.params }

// SessionToken returns the server-issued resume token (zero unless the
// connection negotiated FeatureStreamResume).
func (s *Stream) SessionToken() uint64 { return s.params.SessionToken }

// ResumeTTL is how long the server parks this session after a disconnect
// before the token expires (zero on non-resumable streams).
func (s *Stream) ResumeTTL() time.Duration {
	return time.Duration(s.params.ResumeTTLMs) * time.Millisecond
}

// RowBits is the per-round detector count every pushed row must have.
func (s *Stream) RowBits() int { return int(s.params.RowBits) }

// Sent reports the number of rounds shipped so far.
func (s *Stream) Sent() uint64 { return s.sent }

// SendRounds ships consecutive syndrome rounds (each row.Len() ==
// RowBits), splitting across frames at the protocol's per-frame cap.
//
// Each frame is queued behind whatever is queued. It is written at once
// only while the rounds already written are too few to force a commit on
// their own (fewer than holdRows beyond the commit watermark Recv has
// seen), or when the queue has passed maxQueuedSend. Otherwise it leaves
// with the read half's next flush, before Recv blocks. That is live:
// written rounds at least holdRows past the watermark mean the server owes
// a commit past it, whose arrival wakes the receiver, and the receiver
// flushes before it parks again. So a stream's rounds reach the server as
// long as a receiver drains commits — the streaming contract anyway — and
// CloseSend writes everything still queued.
func (s *Stream) SendRounds(rows []bitvec.Vec) error {
	if s.closedSend {
		return fmt.Errorf("server: stream send half already closed")
	}
	for len(rows) > 0 {
		n := len(rows)
		if n > maxStreamRowsPerFrame {
			n = maxStreamRowsPerFrame
		}
		if err := s.sendBatch(rows[:n]); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

func (s *Stream) sendBatch(rows []bitvec.Vec) error {
	c := s.c
	width := int(s.params.RowBits)
	s.enc = s.enc[:0]
	for _, r := range rows {
		if r.Len() != width {
			return fmt.Errorf("server: stream row has %d bits, want %d", r.Len(), width)
		}
	}
	c.wmu.Lock()
	err := c.writeErr()
	var written uint64
	var full bool
	if err == nil {
		for _, r := range rows {
			s.enc = c.codec.Encode(r, s.enc)
		}
		start := len(c.wbuf)
		frame := StreamRounds{FirstRow: s.sent, Count: uint16(len(rows)), Rows: s.enc}
		c.wbuf = endFrame(frame.AppendTo(beginFrame(c.wbuf, FrameStreamRounds)), start, c.crc)
		s.sent += uint64(len(rows))
		c.rowsQueued += uint64(len(rows))
		written = s.sent - c.rowsQueued
		full = len(c.wbuf) >= maxQueuedSend
	}
	c.wmu.Unlock()
	// The watermark is read after the unlock. A read half whose TryLock
	// lost to this call stored its watermark before that TryLock, so the
	// load sees it: either the rounds written hold a due commit, or this
	// call writes. written only grows behind the snapshot (a flush by the
	// read half), which at worst makes this flush a no-op.
	if err == nil && (full || written < s.committed.Load()+s.hold) {
		c.wmu.Lock()
		err = c.flushLocked()
		c.wmu.Unlock()
	}
	return err
}

// CloseSend declares the round stream complete (the last pushed row is the
// final data-measurement round). The server flushes every remaining window
// and answers with a StreamClosed summary — keep calling Recv until it
// reports Closed.
func (s *Stream) CloseSend() error {
	if s.closedSend {
		return fmt.Errorf("server: stream send half already closed")
	}
	s.closedSend = true
	c := s.c
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeFrame(FrameStreamClose, nil)
}

// StreamEvent is one server-to-client streaming message: a committed
// window correction, or (Closed true) the final stream summary. A commit's
// AckRows releases the client's replay buffer below it, and a forced
// commit's CarrySeam/Carry is what a cold re-open from its watermark must
// pass to OpenStreamAt.
type StreamEvent struct {
	Commit  StreamCorrections
	Closed  bool
	Summary StreamClosed
}

// Forced reports a commit whose window cut was forced (approximate seam).
func (e StreamEvent) Forced() bool { return e.Commit.Flags&FlagForcedSeam != 0 }

// DeadlineMiss reports a commit that overran its row-budget deadline.
func (e StreamEvent) DeadlineMiss() bool { return e.Commit.Flags&FlagDeadlineMiss != 0 }

// Recv blocks for the next commit or the final summary. After a Closed
// event the session is over and the Client is usable for decode traffic
// again.
func (s *Stream) Recv() (StreamEvent, error) {
	c := s.c
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.callTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return StreamEvent{}, fmt.Errorf("server: arming stream recv deadline: %w", err)
		}
	}
	t, payload, err := c.readFrame()
	if err != nil {
		return StreamEvent{}, err
	}
	switch t {
	case FrameStreamCorrections:
		cm, err := ParseStreamCorrections(payload)
		if err != nil {
			return StreamEvent{}, err
		}
		// The parsed carry aliases the client's read buffer, which the next
		// Recv overwrites; the event outlives it.
		cm.Carry = bytes.Clone(cm.Carry)
		if end := cm.FirstRow + uint64(cm.RowCount); end > s.committed.Load() {
			s.committed.Store(end)
		}
		return StreamEvent{Commit: cm}, nil
	case FrameStreamClosed:
		sum, err := ParseStreamClosed(payload)
		if err != nil {
			return StreamEvent{}, err
		}
		return StreamEvent{Closed: true, Summary: sum}, nil
	case FrameError:
		e, err := ParseErrorFrame(payload)
		if err != nil {
			return StreamEvent{}, err
		}
		return StreamEvent{}, fmt.Errorf("server: stream error (status %d): %s", e.Code, e.Message)
	default:
		return StreamEvent{}, fmt.Errorf("server: unexpected frame type %d in stream", t)
	}
}
