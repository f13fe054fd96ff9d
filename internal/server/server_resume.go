package server

import (
	"fmt"
	"sort"
	"time"

	"astrea/internal/compress"
)

// Resume cache: resumable streaming sessions whose connection died are
// parked here — pipeline intact, redelivery ring loaded — awaiting a
// StreamResume frame from a reconnecting client. The cache is bounded
// three ways: a TTL (StreamResumeTTL) reaped in the background, a session
// count (StreamResumeMaxSessions) and an estimated byte budget
// (StreamResumeMaxBytes), both enforced oldest-first at park time. An
// evicted, expired or unknown session costs the client nothing but a cold
// re-open: it replays its whole uncommitted tail into a fresh pipeline
// seeded from its commit watermark, which is bit-identical by
// construction (see internal/stream's resume contract).

// resumeEnabled reports whether this daemon parks disconnected resumable
// sessions (a non-positive TTL disables the feature bit entirely).
func (s *Server) resumeEnabled() bool { return s.cfg.StreamResumeTTL > 0 }

// newStreamToken issues a session token: unique within the process and
// unlikely to collide across restarts (the counter is seeded from the
// start time), so a token presented to a restarted — or different —
// replica misses cleanly and the client falls back to a cold re-open.
func (s *Server) newStreamToken() uint64 {
	return s.resumeSeq.Add(0x9E3779B97F4A7C15)
}

// registerSession tracks a live resumable session by token.
func (s *Server) registerSession(sess *streamSession) {
	s.resumeMu.Lock()
	s.sessions[sess.token] = sess
	s.resumeMu.Unlock()
}

// unregisterSession drops a terminal session from the registry and cache.
func (s *Server) unregisterSession(sess *streamSession) {
	if !sess.resumable {
		return
	}
	s.resumeMu.Lock()
	delete(s.sessions, sess.token)
	delete(s.parked, sess.token)
	s.resumeMu.Unlock()
}

// parkStream moves a session into the resume cache after its connection
// died; false means the session already reached a terminal state.
func (s *Server) parkStream(sess *streamSession) bool {
	sess.mu.Lock()
	if sess.state == sessionDone {
		sess.mu.Unlock()
		return false
	}
	sess.state = sessionParked
	sess.attached = nil
	sess.writeErr = nil
	sess.parkedAt = time.Now()
	sess.cond.Broadcast()
	sess.mu.Unlock()
	s.stats.streamsParked.Add(1)

	// A reconnect may have reattached, and even finished, the session since
	// sess.mu was released: cache it only while it is still parked, or a
	// finished session would stay in the cache for good.
	s.resumeMu.Lock()
	sess.mu.Lock()
	if sess.state == sessionParked {
		s.parked[sess.token] = sess
	}
	sess.mu.Unlock()
	victims := s.overflowLocked()
	s.resumeMu.Unlock()
	for _, v := range victims {
		if s.dropParked(v) {
			s.stats.streamsResumeEvicted.Add(1)
		}
	}
	return true
}

// overflowLocked selects oldest-first eviction victims until the parked
// set fits the count and byte bounds; callers hold resumeMu.
func (s *Server) overflowLocked() []*streamSession {
	maxN := s.cfg.StreamResumeMaxSessions
	maxB := s.cfg.StreamResumeMaxBytes
	if maxN <= 0 && maxB <= 0 {
		return nil
	}
	count := len(s.parked)
	var bytes int64
	all := make([]*streamSession, 0, count)
	for _, v := range s.parked {
		all = append(all, v)
		bytes += int64(v.footprint())
	}
	if (maxN <= 0 || count <= maxN) && (maxB <= 0 || bytes <= maxB) {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].parkedAt.Before(all[j].parkedAt) })
	var victims []*streamSession
	for _, v := range all {
		if (maxN <= 0 || count <= maxN) && (maxB <= 0 || bytes <= maxB) {
			break
		}
		victims = append(victims, v)
		count--
		bytes -= int64(v.footprint())
	}
	return victims
}

// dropParked aborts a parked session (eviction, expiry or shutdown);
// false means the session was no longer parked — resumed or already
// terminal — and was left alone.
func (s *Server) dropParked(sess *streamSession) bool {
	sess.mu.Lock()
	if sess.state != sessionParked {
		sess.mu.Unlock()
		return false
	}
	sess.state = sessionDone
	sess.cond.Broadcast()
	sess.mu.Unlock()
	sess.p.Abort()
	<-sess.pumpDone
	s.unregisterSession(sess)
	s.accumulateStreamStats(sess.p.Stats())
	s.stats.streamsAborted.Add(1)
	s.releasePool(sess.pool)
	return true
}

// resumeReaper expires parked sessions past the resume TTL.
func (s *Server) resumeReaper(ttl time.Duration) {
	defer s.reaperWG.Done()
	tick := ttl / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-ttl)
			var expired []*streamSession
			s.resumeMu.Lock()
			for _, v := range s.parked {
				if v.parkedAt.Before(cutoff) {
					expired = append(expired, v)
				}
			}
			s.resumeMu.Unlock()
			for _, v := range expired {
				if s.dropParked(v) {
					s.stats.streamsResumeExpired.Add(1)
				}
			}
		}
	}
}

// resumeCacheGauges reports the parked-session count and estimated bytes
// for the stats snapshot.
func (s *Server) resumeCacheGauges() (int, int64) {
	s.resumeMu.Lock()
	parked := make([]*streamSession, 0, len(s.parked))
	for _, v := range s.parked {
		parked = append(parked, v)
	}
	s.resumeMu.Unlock()
	var bytes int64
	for _, v := range parked {
		bytes += int64(v.footprint())
	}
	return len(parked), bytes
}

// serveStreamResume reattaches a connection to a parked session. A nil
// return leaves the connection usable (reattached and since closed, or
// cleanly refused — the client then re-opens cold on the same
// connection); an error tears the connection down.
func (s *Server) serveStreamResume(c *conn, codec compress.Codec, payload []byte) error {
	if c.features&FeatureStream == 0 || c.features&FeatureStreamResume == 0 {
		return fmt.Errorf("server: stream-resume on a connection that did not negotiate FeatureStreamResume")
	}
	req, err := ParseStreamResume(payload)
	if err != nil {
		return err
	}
	refuse := func(msg string) error {
		s.stats.streamsResumeMisses.Add(1)
		return c.writeFrame(FrameStreamResumed, StreamResumed{
			Status:  StatusUnknownSession,
			Message: msg,
		}.AppendTo(nil))
	}
	s.resumeMu.Lock()
	sess := s.sessions[req.Token]
	s.resumeMu.Unlock()
	if sess == nil {
		return refuse("unknown or expired stream session")
	}
	if s.pools[sess.pool.dist] != c.slot {
		// A session opened on a since-superseded generation of this
		// distance may be resumed — it keeps decoding on its pinned pool,
		// and the rotation contract guarantees the row width did not
		// change. Another distance is a different operating point.
		return refuse("session belongs to a different operating point")
	}

	sess.mu.Lock()
	for sess.state == sessionAttached {
		// The previous connection has not observed its own death yet:
		// close it and wait for its read loop to park. The newest
		// connection wins — it is the one the client is actually on. A nil
		// attached means the pump already hit a write error and closed the
		// connection itself; the read loop is about to notice — just wait.
		if old := sess.attached; old != nil {
			//lint:allow errwrap forced detach; the old read loop observes the close and parks the session
			old.Conn.Close()
		}
		//lint:allow lockorder Cond.Wait atomically releases sess.mu while parked; nothing is held across the block
		sess.cond.Wait()
	}
	if sess.state == sessionDone {
		sess.mu.Unlock()
		return refuse("stream session already finished")
	}
	rows := sess.rowsReceived.Load()
	if req.SentRows < rows {
		sess.mu.Unlock()
		err := refuse(fmt.Sprintf("client sent %d rows but the session had received %d", req.SentRows, rows))
		// The client's watermarks are inconsistent with the session; it
		// will re-open cold, so the parked state is garbage.
		s.dropParked(sess)
		return err
	}
	start, ok := sess.replayStart(req.AckRow)
	if !ok {
		sess.mu.Unlock()
		err := refuse(fmt.Sprintf("commit watermark %d outside the retained window", req.AckRow))
		s.dropParked(sess)
		return err
	}

	// Reattach: answer, redeliver every retained commit the client has
	// not acknowledged, then (already-closed sessions) the summary — all
	// under sess.mu so the pump cannot interleave a fresh commit
	// mid-replay.
	closed := sess.summary != nil
	res := StreamResumed{Status: StatusOK, RowsReceived: rows}
	if closed {
		res.Closed = 1
	}
	if err := c.writeFrame(FrameStreamResumed, res.AppendTo(nil)); err != nil {
		sess.mu.Unlock()
		return err // this conn is dead too; the session stays parked
	}
	for _, cm := range sess.retained[start:] {
		// Queued, not written: the summary below or runStream's first
		// flush carries them, all in one write.
		cm.AckRows = rows
		if err := c.queueCommit(cm, nil); err != nil {
			sess.mu.Unlock()
			return err
		}
	}
	if closed {
		summary := *sess.summary
		sess.mu.Unlock()
		if err := c.writeFrame(FrameStreamClosed, summary.AppendTo(nil)); err != nil {
			return err
		}
		s.stats.streamsResumed.Add(1)
		s.finishStream(sess, true)
		return nil
	}
	sess.state = sessionAttached
	sess.attached = c
	sess.writeErr = nil
	sess.mu.Unlock()
	s.resumeMu.Lock()
	delete(s.parked, sess.token)
	s.resumeMu.Unlock()
	s.stats.streamsResumed.Add(1)
	return s.runStream(c, codec, sess)
}
