package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/montecarlo"
	"astrea/internal/stream"
)

// Streaming session handler: a FrameStreamOpen on a FeatureStream
// connection switches the read loop into a windowed streaming session
// backed by an internal/stream pipeline. The session ends with a clean
// StreamClose/StreamClosed exchange — after which the connection returns
// to ordinary decode mode — or tears the connection down on any protocol
// or transport fault (rounds must be contiguous; a lost frame is
// unrecoverable mid-stream).
//
// On connections that negotiated FeatureStreamResume the session outlives
// its connection: the pipeline and a ring of recently written commits are
// owned by a streamSession, a per-session pump goroutine moves commits
// from the pipeline to whichever connection is currently attached, and
// a connection loss parks the session in a TTL-bounded resume cache (see
// server_resume.go) instead of aborting it. A StreamResume frame on a new
// connection reattaches, re-delivers the commits the client has not
// acknowledged, and the client replays the rounds the server never
// received — bit-for-bit identical to an uninterrupted run because the
// pipeline never restarted. Protocol violations (gaps, undecodable rows,
// unexpected frames) still abort: they are client bugs, not transport
// faults, and a replay from a buggy client is not trustworthy.

const (
	// maxStreamDetRows bounds the window environment a session may demand:
	// the Global Weight Tables are dense N² (33 B a cell), so detector rows
	// × row width is capped regardless of what the client requests. 2 048
	// detectors are ~138 MB, within the shared environment cache's
	// montecarlo.DefaultEnvCacheBytes (256 MiB); a default d=7 open uses
	// ~1 000.
	maxStreamDetRows = 2048
	// maxStreamInflight bounds the per-session commit backlog a client may
	// request.
	maxStreamInflight = 64
	// maxRetainedCommits bounds one resumable session's redelivery ring.
	// TCP delivers commits in order, so the commits a client is missing
	// are always a contiguous suffix: either the ring still covers the
	// client's ack watermark and a warm resume replays from it, or the
	// ring was trimmed past it and the resume is refused — the client then
	// re-opens cold, which is always bit-identical.
	maxRetainedCommits = 512
)

// sessionState tracks where a streaming session is in its lifecycle.
// Exactly one transition into sessionDone wins, and that claimant
// performs the terminal accounting.
type sessionState uint8

const (
	// sessionAttached: a connection's read loop is feeding the session.
	sessionAttached sessionState = iota
	// sessionParked: the connection died; the session waits in the resume
	// cache for a StreamResume (or the TTL reaper).
	sessionParked
	// sessionDone: terminal — completed, aborted, expired or evicted.
	sessionDone
)

// streamSession is one windowed streaming session. The attached
// connection's read loop feeds the pipeline; the pump goroutine drains
// commits to the ring and the attached connection. Sessions on connections
// without FeatureStreamResume use the same structure but keep no ring and
// die with their connection.
type streamSession struct {
	token     uint64
	resumable bool
	p         *stream.Pipeline
	pool      *distPool
	width     int
	rowWords  int
	// baseBytes estimates the session's parked memory footprint outside
	// the redelivery ring (one window plus the commit backlog's seams),
	// used by the resume cache's byte bound.
	baseBytes int

	// rowsReceived is the contiguous-rounds watermark: every round below
	// it has been pushed into the pipeline. Written by the attached read
	// loop, read by the pump (commit ack watermarks) and the resume path.
	rowsReceived atomic.Uint64

	// pumpDone closes when the pump goroutine has drained the commit
	// channel — after that the pipeline's stats and the ring are final.
	pumpDone chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on every state transition
	state    sessionState
	attached *conn
	writeErr error     // first pump write failure on the attached conn
	parkedAt time.Time // TTL/eviction clock, valid while parked
	// summary is set when the stream closed cleanly but the connection
	// died before the StreamClosed frame was delivered; a resumed
	// connection drains the ring and then this summary.
	summary *StreamClosed
	// retained is the redelivery ring in write order, each commit in wire
	// shape (the carry already serialised). trimmed records that
	// old entries were dropped, in which case only ack watermarks still in
	// the ring are warm-resumable. commitHigh is the round watermark after
	// the newest retained commit (the session's StartRow before any).
	retained      []StreamCorrections
	retainedBytes int
	trimmed       bool
	commitHigh    uint64
}

// claimDone claims the terminal state; exactly one caller wins and must
// perform the terminal accounting.
func (sess *streamSession) claimDone() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == sessionDone {
		return false
	}
	sess.state = sessionDone
	sess.attached = nil
	sess.cond.Broadcast()
	return true
}

// footprint estimates the session's resident bytes for the resume cache's
// byte bound.
func (sess *streamSession) footprint() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.baseBytes + sess.retainedBytes
}

// retainedSize estimates one retained commit's resident bytes.
func retainedSize(cm StreamCorrections) int { return 53 + len(cm.Carry) }

// retain appends one commit to the redelivery ring; callers hold sess.mu.
func (sess *streamSession) retain(cm StreamCorrections) {
	sess.retained = append(sess.retained, cm)
	sess.retainedBytes += retainedSize(cm)
	sess.commitHigh = cm.FirstRow + uint64(cm.RowCount)
	for len(sess.retained) > maxRetainedCommits {
		sess.retainedBytes -= retainedSize(sess.retained[0])
		sess.retained = sess.retained[1:]
		sess.trimmed = true
	}
}

// replayStart locates the ring index to redeliver from for a client whose
// commit watermark is ack; ok is false when the ring no longer covers it
// or the watermark is not a commit boundary the server knows. Callers
// hold sess.mu.
func (sess *streamSession) replayStart(ack uint64) (int, bool) {
	if ack == sess.commitHigh {
		return len(sess.retained), true
	}
	for i := range sess.retained {
		if sess.retained[i].FirstRow == ack {
			return i, true
		}
	}
	return 0, false
}

// resolveStreamConfig turns a client's stream open into a pipeline
// configuration the server is willing to run: stream.Config.Resolve fills
// the defaults, then the window parameters are clamped so the one window
// environment, WindowRounds+2·PadRounds rows of the row width, stays within
// maxStreamDetRows detectors whatever the client asks for. The gap is
// clamped to fit the clamped window, so New resolves nothing further.
func resolveStreamConfig(env *montecarlo.Env, decoderName string, req StreamOpen) (stream.Config, error) {
	cfg := stream.Config{
		Env:          env,
		Decoder:      decoderName,
		WindowRounds: int(req.WindowRounds),
		GapRounds:    int(req.GapRounds),
		PadRounds:    int(req.PadRounds),
		RowBudgetNs:  float64(req.RowBudgetNs),
		MaxInflight:  min(int(req.MaxInflight), maxStreamInflight),
	}
	if err := cfg.Resolve(); err != nil {
		return cfg, err
	}
	maxRows := max(maxStreamDetRows/stream.RowWidth(env), 4)
	cfg.PadRounds = max(min(cfg.PadRounds, maxRows/4), 1)
	cfg.WindowRounds = min(cfg.WindowRounds, max(maxRows-2*cfg.PadRounds, 4))
	cfg.GapRounds = min(cfg.GapRounds, cfg.WindowRounds-2)
	return cfg, nil
}

// serveStream starts one streaming session on the connection. A nil
// return hands the connection back to the decode loop (clean close, or a
// refused open); an error closes the connection — which parks rather than
// kills a resumable session.
func (s *Server) serveStream(c *conn, codec compress.Codec, payload []byte) error {
	if c.features&FeatureStream == 0 {
		return fmt.Errorf("server: stream-open on a connection that did not negotiate FeatureStream")
	}
	resumable := c.features&FeatureStreamResume != 0
	req, err := ParseStreamOpen(payload)
	if err != nil {
		return err
	}

	// The session pins the generation current at open time and holds a
	// reference on it until its terminal accounting: a rotation mid-stream
	// never moves an open session, so an old-generation stream finishes
	// bit-identical to an uninterrupted run on that generation.
	pool := s.acquirePool(c)
	refuse := func(msg string) error {
		// Refuse the session but keep the connection: the decode path is
		// still healthy.
		s.releasePool(pool)
		s.stats.streamsRefused.Add(1)
		//lint:allow errwrap best-effort refusal; a failed write already closed the conn and the next read exits the loop
		c.writeFrame(FrameStreamOpenAck, StreamOpenAck{Status: StatusInternalError, Message: msg}.AppendTo(nil))
		return nil
	}

	cfg, err := resolveStreamConfig(pool.env, s.cfg.Decoder, req)
	if err != nil {
		return refuse(err.Error())
	}
	width := stream.RowWidth(pool.env)
	rowWords := (width + 63) / 64
	if req.StartRow > 0 || req.NextSeq > 0 || req.CarrySeam > 0 {
		// Cold re-open: the client restarts a lost session from its commit
		// watermark and will replay the uncommitted tail.
		if len(req.Carry) != int(req.CarrySeam)*rowWords*8 {
			return refuse(fmt.Sprintf("resumed carry is %d bytes, want %d (%d rows × %d words)",
				len(req.Carry), int(req.CarrySeam)*rowWords*8, req.CarrySeam, rowWords))
		}
		cfg.StartRow = req.StartRow
		cfg.StartSeq = req.NextSeq
		cfg.CarrySeam = int(req.CarrySeam)
		if n := int(req.CarrySeam) * rowWords; n > 0 {
			words := make([]uint64, n)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(req.Carry[i*8:])
			}
			cfg.Carry = words
		}
	}

	p, err := stream.New(cfg)
	if err != nil {
		return refuse(err.Error())
	}
	s.stats.streamsOpened.Add(1)

	resolved := p.Stats()
	sess := &streamSession{
		resumable:  resumable,
		p:          p,
		pool:       pool,
		width:      width,
		rowWords:   rowWords,
		pumpDone:   make(chan struct{}),
		state:      sessionAttached,
		attached:   c,
		commitHigh: cfg.StartRow,
	}
	sess.cond = sync.NewCond(&sess.mu)
	sess.rowsReceived.Store(cfg.StartRow)
	// One window is materialised at a time (planner buffer, cut copy and
	// padded embedding), and each commit in the backlog may hold a seam.
	sess.baseBytes = rowWords * 8 * (resolved.EnvRows + resolved.MaxInflight*resolved.PadRounds)

	ack := StreamOpenAck{
		Status:       StatusOK,
		WindowRounds: uint16(resolved.WindowRounds),
		GapRounds:    uint16(resolved.GapRounds),
		PadRounds:    uint16(resolved.PadRounds),
		RowBudgetNs:  uint32(resolved.RowBudgetNs),
		MaxInflight:  uint16(resolved.MaxInflight),
		RowBits:      uint16(width),
	}
	if resumable {
		sess.token = s.newStreamToken()
		s.registerSession(sess)
		ack.SessionToken = sess.token
		ack.ResumeTTLMs = uint32(s.cfg.StreamResumeTTL / time.Millisecond)
	}

	// The pump starts before the ack write so every teardown path can wait
	// on pumpDone; no commit can precede the ack because no round has been
	// pushed yet.
	s.streamWG.Add(1)
	go s.pumpStream(sess)

	if err := c.writeFrame(FrameStreamOpenAck, ack.AppendTo(nil)); err != nil {
		return s.abortStream(sess, err)
	}
	return s.runStream(c, codec, sess)
}

// pumpStream drains the pipeline's commits into the session: every commit
// is retained for redelivery (resumable sessions) and written to the
// attached connection, if any.
func (s *Server) pumpStream(sess *streamSession) {
	defer s.streamWG.Done()
	defer close(sess.pumpDone)
	for cm := range sess.p.Commits() {
		sess.deliver(cm)
	}
}

// deliver retains one commit and queues it on the attached connection. It
// writes the queue only when the session's reader is parked in a socket
// read; otherwise the reader flushes before its next read that could block,
// so a burst of commits leaves in one write. A write failure detaches the
// connection (the read loop observes the closed conn and parks or aborts
// the session); a session that cannot be resumed also aborts its pipeline
// at once.
func (sess *streamSession) deliver(cm stream.Commit) {
	var flags uint8
	if cm.DeadlineMiss {
		flags |= FlagDeadlineMiss
	}
	if cm.Forced {
		flags |= FlagForcedSeam
	}
	if cm.Fallback {
		flags |= FlagDegraded
	}
	f := StreamCorrections{
		WindowSeq:   cm.WindowSeq,
		FirstRow:    cm.FirstRow,
		RowCount:    uint16(cm.RowCount),
		ObsMask:     cm.ObsMask,
		WeightMilli: uint64(cm.Weight*1000 + 0.5),
		SojournNs:   uint64(cm.SojournNs),
		Flags:       flags,
	}
	if cm.Forced {
		f.CarrySeam = uint16(cm.CarryRows)
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.resumable {
		// The ring's entry owns a serialised copy of the carry; the frame
		// below encodes the words in place.
		r := f
		if cm.Forced {
			r.Carry = make([]byte, 0, len(cm.Carry)*8)
			for _, w := range cm.Carry {
				r.Carry = binary.LittleEndian.AppendUint64(r.Carry, w)
			}
		}
		sess.retain(r)
	}
	c := sess.attached
	if c == nil || sess.writeErr != nil {
		return
	}
	f.AckRows = sess.rowsReceived.Load()
	err := c.queueCommit(f, cm.Carry)
	// Append, then check the park flag: a reader that parked after this
	// load flushes the commit itself.
	if err == nil && c.parked.Load() {
		err = c.flush()
	}
	if err != nil {
		// The failed flush already closed the conn; the read loop observes
		// the death and parks (resumable) or aborts the session.
		sess.writeErr = err
		sess.attached = nil
		if !sess.resumable {
			// The session cannot be resumed: stop decoding now so the
			// remaining commits drain and the pump can exit.
			sess.p.Abort()
		}
	}
}

// runStream is the session read loop on the attached connection, entered
// from serveStream and re-entered after a successful warm resume. A nil
// return hands the connection back to the decode loop.
func (s *Server) runStream(c *conn, codec compress.Codec, sess *streamSession) error {
	p := sess.p
	row := bitvec.New(sess.width)
	for {
		if !c.frameBuffered() {
			// The next read may block: park, then flush the commits the
			// pump queued; one it queues after this flush finds the flag
			// set and writes itself.
			c.parked.Store(true)
			if err := c.flush(); err != nil {
				return s.suspendStream(sess, err)
			}
		}
		t, payload, err := c.readFrame(s.cfg.MaxFrameBytes, s.cfg.IdleTimeout)
		c.parked.Store(false)
		if errors.Is(err, ErrChecksum) {
			// Rounds are contiguous by contract: a corrupted frame cannot
			// be skipped the way a lone decode request can, so this
			// connection dies — but corruption is a transport fault, so a
			// resumable session parks and the client replays on reconnect.
			s.stats.checksumFail.Add(1)
			//lint:allow errwrap best-effort fault report; the session's connection is being torn down either way
			c.writeFrame(FrameError, ErrorFrame{
				Seq:     sess.rowsReceived.Load(),
				Code:    StatusProtocolError,
				Message: "frame checksum mismatch mid-stream",
			}.AppendTo(nil))
			return s.suspendStream(sess, ErrChecksum)
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.stats.idleReaped.Add(1)
			}
			return s.suspendStream(sess, err)
		}
		c.touch()

		switch {
		case t == FramePing && c.features&FeatureProbe != 0:
			s.stats.pings.Add(1)
			//lint:allow errwrap best-effort probe echo; a failed write already closed the conn and the next read exits the loop
			c.writeFrame(FramePong, payload)
			continue
		case t == FrameStreamRounds:
			frame, err := ParseStreamRounds(payload)
			if err != nil {
				return s.abortStream(sess, err)
			}
			rowsReceived := sess.rowsReceived.Load()
			if frame.FirstRow != rowsReceived {
				return s.abortStream(sess, fmt.Errorf("server: stream rounds arrived at row %d, want %d (gap or replay)",
					frame.FirstRow, rowsReceived))
			}
			rest := frame.Rows
			for i := 0; i < int(frame.Count); i++ {
				consumed, err := codec.Decode(rest, row)
				if err != nil {
					s.stats.malformed.Add(1)
					return s.abortStream(sess, fmt.Errorf("server: undecodable stream row %d: %w", rowsReceived, err))
				}
				rest = rest[consumed:]
				if err := p.PushRow(row); err != nil {
					return s.abortStream(sess, err)
				}
				rowsReceived++
				sess.rowsReceived.Store(rowsReceived)
			}
			if len(rest) != 0 {
				return s.abortStream(sess, fmt.Errorf("server: stream-rounds frame has %d trailing bytes", len(rest)))
			}
			s.stats.bytesIn.Add(int64(len(frame.Rows)))
		case t == FrameStreamClose:
			if err := p.Close(); err != nil {
				err = s.abortStream(sess, err)
				// Tell the client why its stream did not close, after the
				// pump has written every commit it had.
				code := StatusInternalError
				if errors.Is(err, stream.ErrOneRound) || errors.Is(err, stream.ErrSeamUnreplayed) {
					code = StatusProtocolError
				}
				//lint:allow errwrap best-effort failure report; the session is over either way
				c.writeFrame(FrameError, ErrorFrame{
					Seq:     sess.rowsReceived.Load(),
					Code:    code,
					Message: err.Error(),
				}.AppendTo(nil))
				return err
			}
			<-sess.pumpDone // every commit retained and (if attached) written
			sess.mu.Lock()
			werr := sess.writeErr
			sess.mu.Unlock()
			summary := buildStreamSummary(p.Stats())
			if werr == nil {
				err := c.writeFrame(FrameStreamClosed, summary.AppendTo(nil))
				if err == nil {
					s.finishStream(sess, true)
					return nil
				}
				werr = err
			}
			// The client is gone with the summary undelivered: park so a
			// resumed connection can drain it, or account the abort.
			if sess.resumable {
				sess.mu.Lock()
				sess.summary = &summary
				sess.mu.Unlock()
			}
			return s.suspendStream(sess, werr)
		default:
			return s.abortStream(sess, fmt.Errorf("server: unexpected frame type %d mid-stream", t))
		}
	}
}

// buildStreamSummary shapes a finished pipeline's stats into the closing
// summary frame.
func buildStreamSummary(st stream.Stats) StreamClosed {
	var flags uint8
	if st.ForcedCuts > 0 {
		flags |= FlagForcedSeam
	}
	if st.DeadlineMisses > 0 {
		flags |= FlagDeadlineMiss
	}
	return StreamClosed{
		TotalRows:      st.Rows,
		Windows:        st.Windows,
		ForcedCuts:     st.ForcedCuts,
		ObsMask:        st.ObsMask,
		WeightMilli:    uint64(st.Weight*1000 + 0.5),
		DeadlineMisses: st.DeadlineMisses,
		Flags:          flags,
	}
}

// suspendStream handles a connection loss: resumable sessions park in the
// resume cache awaiting a StreamResume; the others abort.
func (s *Server) suspendStream(sess *streamSession, err error) error {
	if sess.resumable && s.parkStream(sess) {
		return err
	}
	return s.abortStream(sess, err)
}

// abortStream tears the session down and performs the terminal accounting
// exactly once.
func (s *Server) abortStream(sess *streamSession, err error) error {
	sess.p.Abort()
	<-sess.pumpDone
	if sess.claimDone() {
		s.unregisterSession(sess)
		s.accumulateStreamStats(sess.p.Stats())
		s.stats.streamsAborted.Add(1)
		s.releasePool(sess.pool)
	}
	return err
}

// finishStream performs the clean-completion accounting exactly once
// (completed is false only for redundant callers racing a teardown).
func (s *Server) finishStream(sess *streamSession, completed bool) {
	if !sess.claimDone() {
		return
	}
	s.unregisterSession(sess)
	s.accumulateStreamStats(sess.p.Stats())
	if completed {
		s.stats.streamsCompleted.Add(1)
	} else {
		s.stats.streamsAborted.Add(1)
	}
	s.releasePool(sess.pool)
}

// accumulateStreamStats folds one finished session's pipeline counters
// into the daemon totals.
func (s *Server) accumulateStreamStats(st stream.Stats) {
	s.stats.streamRows.Add(int64(st.Rows))
	s.stats.streamWindows.Add(int64(st.Windows))
	s.stats.streamForced.Add(int64(st.ForcedCuts))
	s.stats.streamMisses.Add(int64(st.DeadlineMisses))
}
