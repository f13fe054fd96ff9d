package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/prng"
)

// DefaultMaxReplayRows bounds a ResumingStream's uncommitted tail: rounds
// sent but not yet covered by a received commit, the rows that must be
// replayed after a reconnect. A healthy session's tail stays near one
// window; the default leaves room for deep in-flight pipelines while still
// bounding the client's memory.
const DefaultMaxReplayRows = 1 << 16

// RetryPolicy tunes a ResumingStream's reconnect-and-backoff behaviour.
type RetryPolicy struct {
	// MaxAttempts bounds the dial-and-reattach tries per recovery. Default 6.
	MaxAttempts int
	// BaseBackoff is the first wait; attempt k waits roughly
	// BaseBackoff·2^k, jittered to half-to-full of that value so synced
	// clients fan out instead of retrying in lockstep. Default 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps every wait. Default 500ms.
	MaxBackoff time.Duration
	// Seed drives the jitter stream (deterministic replay in tests).
	Seed uint64
	// Sleep overrides the waiter between attempts; nil means time.Sleep.
	// Tests inject a recorder to assert backoff behaviour without real
	// waiting.
	Sleep func(time.Duration)
	// Rand overrides the jitter source with a function returning uniform
	// values in [0, 1); nil draws from a prng stream seeded with Seed.
	// Injecting a constant makes every backoff exactly predictable.
	Rand func() float64
}

func (p *RetryPolicy) applyDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
}

// ErrRetriesExhausted is wrapped by a ResumingStream that could not
// (re-)establish its session within RetryPolicy.MaxAttempts.
var ErrRetriesExhausted = errors.New("server: retries exhausted")

// ResumingStreamOptions tunes a ResumingStream.
type ResumingStreamOptions struct {
	// Stream is the window-parameter request passed to every (re-)open.
	Stream StreamOptions
	// Retry tunes the reconnect loop after a connection loss: attempts and
	// jittered exponential backoff.
	Retry RetryPolicy
	// MaxReplayRows bounds the uncommitted tail held for replay; SendRounds
	// fails once the tail would exceed it (drain commits, then retry). 0
	// means DefaultMaxReplayRows.
	MaxReplayRows int
}

// ResumingStream is a streaming session that survives connection loss: it
// wraps a Stream in a replay buffer of sent-but-uncommitted rounds and a
// redial loop. On any transport fault it reconnects under the retry
// policy, reattaches warm (StreamResume: the server re-delivers retained
// commits and the client replays only rounds the server never received) or
// — when the server no longer holds the session — re-opens cold from the
// commit watermark, replaying the whole tail with the carried seam so the
// resumed pipeline is bit-identical to an uninterrupted one. Re-delivered
// commits are deduplicated against the watermark, so the sequence of
// commits Recv returns partitions the stream exactly once regardless of
// how many reconnects happened.
//
// Like Stream, one goroutine may feed SendRounds while another drains
// Recv; neither call may race itself.
type ResumingStream struct {
	dial  func() (*Client, error)
	opts  ResumingStreamOptions
	pol   RetryPolicy
	rand  func() float64
	sleep func(time.Duration)

	mu     sync.Mutex
	c      *Client
	st     *Stream
	gen    int           // bumped per reconnect; stale recover calls no-op
	params StreamOpenAck // the open stream's ack, session token included

	// Replay state. buf holds rows [base, high): base is the commit
	// watermark (buf[0]'s absolute round), high the next round to append.
	// nextSeq/carrySeam/carry snapshot the last absorbed commit — exactly
	// what a cold re-open from base must pass.
	base      uint64
	high      uint64
	buf       []bitvec.Vec
	nextSeq   uint64
	carrySeam uint16
	carry     []byte

	closed   bool  // CloseSend called
	finished bool  // terminal summary delivered
	broken   error // terminal failure; every later call returns it

	// Summary accumulators across all segments (a cold re-open starts a
	// fresh server-side pipeline, so the client owns the whole-stream
	// totals).
	sumWindows     uint64
	sumForced      uint64
	sumMisses      uint64
	sumObs         uint64
	sumWeightMilli uint64

	reconnects int
	replayed   uint64
	recoveries []time.Duration
}

// NewResumingStream dials and opens a resumable session. dial must return
// a handshaken Client that negotiated FeatureStream|FeatureStreamResume
// (offer both in ClientOptions.Features); it is re-invoked on every
// reconnect. The initial dial+open runs under the same retry policy as
// later reconnects: a session whose very first handshake is severed by a
// transient fault retries instead of failing, but a peer that answers and
// declines the resume capability fails immediately — redialing cannot
// change what the server offers.
func NewResumingStream(dial func() (*Client, error), o ResumingStreamOptions) (*ResumingStream, error) {
	o.Retry.applyDefaults()
	if o.MaxReplayRows <= 0 {
		o.MaxReplayRows = DefaultMaxReplayRows
	}
	r := &ResumingStream{
		dial:  dial,
		opts:  o,
		pol:   o.Retry,
		rand:  o.Retry.Rand,
		sleep: o.Retry.Sleep,
	}
	if r.rand == nil {
		rng := prng.New(o.Retry.Seed)
		r.rand = rng.Float64
	}
	if r.sleep == nil {
		r.sleep = time.Sleep
	}
	var last error
	for attempt := 0; attempt < r.pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.backoff(attempt - 1)
		}
		c, err := dial()
		if err != nil {
			last = err
			continue
		}
		st, err := c.OpenStream(o.Stream)
		if err != nil {
			//lint:allow errwrap teardown of a conn whose open failed; the open error is the one retried on
			c.Close()
			last = err
			continue
		}
		if st.SessionToken() == 0 {
			//lint:allow errwrap teardown of a conn that cannot resume; the capability error below is the actionable one
			c.Close()
			return nil, fmt.Errorf("server: peer did not negotiate stream resume (offer the feature bit and enable the server's resume TTL)")
		}
		r.c, r.st = c, st
		r.params = st.params
		return r, nil
	}
	return nil, fmt.Errorf("%w after %d attempts: %v", ErrRetriesExhausted, r.pol.MaxAttempts, last)
}

// Params returns the server-resolved session parameters.
func (r *ResumingStream) Params() StreamOpenAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.params
}

// RowBits is the per-round detector count every pushed row must have.
func (r *ResumingStream) RowBits() int { return int(r.Params().RowBits) }

// Reconnects counts successful recoveries (redial + reattach or re-open).
func (r *ResumingStream) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// ReplayedRounds counts rounds re-sent across all recoveries.
func (r *ResumingStream) ReplayedRounds() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replayed
}

// Recoveries returns the wall-clock duration of each recovery, fault
// detection to reattached.
func (r *ResumingStream) Recoveries() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.recoveries...)
}

// PendingRounds is the current uncommitted tail (rounds sent beyond the
// commit watermark, held for replay).
func (r *ResumingStream) PendingRounds() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.high - r.base
}

// SendRounds buffers and ships consecutive syndrome rounds, reconnecting
// through transport faults. It fails — without buffering — if the
// uncommitted tail would exceed MaxReplayRows; drain commits with Recv and
// retry.
func (r *ResumingStream) SendRounds(rows []bitvec.Vec) error {
	r.mu.Lock()
	if r.broken != nil {
		err := r.broken
		r.mu.Unlock()
		return err
	}
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("server: stream send half already closed")
	}
	if r.high-r.base+uint64(len(rows)) > uint64(r.opts.MaxReplayRows) {
		pending := r.high - r.base
		r.mu.Unlock()
		return fmt.Errorf("server: replay buffer full (%d uncommitted rounds + %d new > %d); drain commits first",
			pending, len(rows), r.opts.MaxReplayRows)
	}
	for _, row := range rows {
		r.buf = append(r.buf, row.Clone())
	}
	r.high += uint64(len(rows))
	r.mu.Unlock()
	return r.shipTail()
}

// shipTail sends every buffered round the current stream has not shipped,
// recovering on transport faults until the tail is flushed.
func (r *ResumingStream) shipTail() error {
	for {
		r.mu.Lock()
		if r.broken != nil {
			err := r.broken
			r.mu.Unlock()
			return err
		}
		st, gen := r.st, r.gen
		next := st.Sent() // safe: all senders mutate st.sent under r.mu or are this goroutine
		if next >= r.high {
			r.mu.Unlock()
			return nil
		}
		batch := make([]bitvec.Vec, r.high-next)
		copy(batch, r.buf[next-r.base:r.high-r.base])
		r.mu.Unlock()
		if err := st.SendRounds(batch); err != nil {
			if rerr := r.recover(gen, err); rerr != nil {
				return rerr
			}
		}
	}
}

// CloseSend declares the round stream complete, flushing the tail first;
// it survives reconnects (recovery replays the close on the new
// connection).
func (r *ResumingStream) CloseSend() error {
	r.mu.Lock()
	if r.broken != nil {
		err := r.broken
		r.mu.Unlock()
		return err
	}
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("server: stream send half already closed")
	}
	r.closed = true
	r.mu.Unlock()
	if err := r.shipTail(); err != nil {
		return err
	}
	for {
		r.mu.Lock()
		if r.broken != nil {
			err := r.broken
			r.mu.Unlock()
			return err
		}
		st, gen := r.st, r.gen
		if st.closedSend {
			// A recovery already delivered the close (reattach sends it
			// when the close flag is set), or the server had it all along.
			r.mu.Unlock()
			return nil
		}
		r.mu.Unlock()
		if err := st.CloseSend(); err != nil {
			if rerr := r.recover(gen, err); rerr != nil {
				return rerr
			}
			continue
		}
		return nil
	}
}

// Recv blocks for the next commit or the final summary, reconnecting
// through transport faults and deduplicating re-delivered commits. The
// Closed event's summary is synthesized client-side across every segment
// of the session (its ObsMask is the exact whole-stream parity; its
// WeightMilli is the sum of per-commit rounded weights, which can differ
// from a single server-side rounding by under a milli-unit per window).
func (r *ResumingStream) Recv() (StreamEvent, error) {
	for {
		r.mu.Lock()
		if r.broken != nil {
			err := r.broken
			r.mu.Unlock()
			return StreamEvent{}, err
		}
		if r.finished {
			r.mu.Unlock()
			return StreamEvent{}, fmt.Errorf("server: stream already finished")
		}
		st, gen := r.st, r.gen
		r.mu.Unlock()
		ev, err := st.Recv()
		if err != nil {
			if rerr := r.recover(gen, err); rerr != nil {
				return StreamEvent{}, rerr
			}
			continue
		}
		r.mu.Lock()
		if ev.Closed {
			r.finished = true
			ev.Summary = r.summaryLocked()
			r.mu.Unlock()
			return ev, nil
		}
		cm := ev.Commit
		if cm.FirstRow != r.base {
			if cm.FirstRow+uint64(cm.RowCount) <= r.base {
				// Re-delivered duplicate from before the watermark (the
				// at-most-once guarantee): drop it.
				r.mu.Unlock()
				continue
			}
			r.broken = fmt.Errorf("server: commit at row %d (%d rounds) violates the stream partition at watermark %d",
				cm.FirstRow, cm.RowCount, r.base)
			err := r.broken
			r.mu.Unlock()
			return StreamEvent{}, err
		}
		r.base += uint64(cm.RowCount)
		r.buf = r.buf[cm.RowCount:]
		if len(r.buf) == 0 {
			r.buf = nil // release the backing array between commits
		}
		r.nextSeq = cm.WindowSeq + 1
		r.carrySeam, r.carry = cm.CarrySeam, cm.Carry
		r.sumWindows++
		if cm.Flags&FlagForcedSeam != 0 {
			r.sumForced++
		}
		if cm.Flags&FlagDeadlineMiss != 0 {
			r.sumMisses++
		}
		r.sumObs ^= cm.ObsMask
		r.sumWeightMilli += cm.WeightMilli
		r.mu.Unlock()
		return ev, nil
	}
}

// summaryLocked synthesizes the whole-stream summary; callers hold mu.
func (r *ResumingStream) summaryLocked() StreamClosed {
	var flags uint8
	if r.sumForced > 0 {
		flags |= FlagForcedSeam
	}
	if r.sumMisses > 0 {
		flags |= FlagDeadlineMiss
	}
	return StreamClosed{
		TotalRows:      r.high,
		Windows:        r.sumWindows,
		ForcedCuts:     r.sumForced,
		ObsMask:        r.sumObs,
		WeightMilli:    r.sumWeightMilli,
		DeadlineMisses: r.sumMisses,
		Flags:          flags,
	}
}

// recover re-establishes the session after a transport fault on generation
// gen. It is single-flight: whichever of the send and receive goroutines
// observes the fault first performs the recovery under mu while the other
// blocks; a stale gen means someone else already recovered and the caller
// just retries on the new stream. A nil return means retry; an error is
// terminal.
func (r *ResumingStream) recover(gen int, cause error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	if r.gen != gen {
		return nil
	}
	if r.finished {
		// The summary already landed; the fault hit a dead session.
		return cause
	}
	start := time.Now()
	if r.c != nil {
		//lint:allow errwrap discarding the faulted conn; cause is the actionable error
		r.c.Close()
		r.c = nil
	}
	last := cause
	for attempt := 0; attempt < r.pol.MaxAttempts; attempt++ {
		c, err := r.dial()
		if err != nil {
			last = err
			r.backoff(attempt)
			continue
		}
		st, err := r.reattach(c)
		if err != nil {
			//lint:allow errwrap discarding a conn whose reattach failed; that error is the one retried on
			c.Close()
			last = err
			r.backoff(attempt)
			continue
		}
		r.c, r.st = c, st
		r.gen++
		r.reconnects++
		r.recoveries = append(r.recoveries, time.Since(start))
		return nil
	}
	r.broken = fmt.Errorf("%w after %d attempts: %v", ErrRetriesExhausted, r.pol.MaxAttempts, last)
	return r.broken
}

// reattach restores the session on a fresh connection: warm resume when
// the server still holds the token, cold re-open from the commit watermark
// otherwise. Callers hold mu.
func (r *ResumingStream) reattach(c *Client) (*Stream, error) {
	if c.Features()&FeatureStream == 0 || c.Features()&FeatureStreamResume == 0 {
		return nil, fmt.Errorf("server: reconnected peer did not negotiate stream resume")
	}
	st, res, err := c.ResumeStream(r.params.SessionToken, r.base, r.high, r.params)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return r.rejoin(st, res)
	}
	// Cleanly refused — unknown token (restart, failover to another
	// replica, TTL expiry, cache eviction): re-open cold on the same
	// connection.
	return r.reopen(c)
}

// rejoin finishes a warm resume: replay the rounds the server never
// received, and the close if one is owed. Callers hold mu.
func (r *ResumingStream) rejoin(st *Stream, res StreamResumed) (*Stream, error) {
	if res.RowsReceived < r.base || res.RowsReceived > r.high {
		return nil, fmt.Errorf("server: resumed watermark %d outside the client's [%d, %d] window",
			res.RowsReceived, r.base, r.high)
	}
	if res.Closed != 0 {
		// The server saw the close, so it saw every round before it.
		if res.RowsReceived != r.high {
			return nil, fmt.Errorf("server: closed session resumed at watermark %d, client sent %d",
				res.RowsReceived, r.high)
		}
		return st, nil
	}
	if tail := r.buf[res.RowsReceived-r.base : r.high-r.base]; len(tail) > 0 {
		if err := st.SendRounds(tail); err != nil {
			return nil, err
		}
		r.replayed += uint64(len(tail))
	}
	if r.closed {
		if err := st.CloseSend(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// reopen performs a cold re-open from the commit watermark, replaying the
// whole uncommitted tail with the carried seam. Callers hold mu.
func (r *ResumingStream) reopen(c *Client) (*Stream, error) {
	st, err := c.OpenStreamAt(r.opts.Stream, r.base, r.nextSeq, r.carrySeam, r.carry)
	if err != nil {
		return nil, err
	}
	// Bit-identity needs the re-opened session to cut windows exactly where
	// the original would have: the same request against a differently
	// configured server resolving different geometry must fail, not drift.
	if st.params.WindowRounds != r.params.WindowRounds ||
		st.params.GapRounds != r.params.GapRounds ||
		st.params.PadRounds != r.params.PadRounds ||
		st.params.RowBudgetNs != r.params.RowBudgetNs ||
		st.params.RowBits != r.params.RowBits {
		return nil, fmt.Errorf("server: re-opened stream resolved different window parameters")
	}
	if tail := r.buf[:r.high-r.base]; len(tail) > 0 {
		if err := st.SendRounds(tail); err != nil {
			return nil, err
		}
		r.replayed += uint64(len(tail))
	}
	if r.closed {
		if err := st.CloseSend(); err != nil {
			return nil, err
		}
	}
	r.params = st.params
	return st, nil
}

// backoff sleeps before attempt+1: the exponential base wait
// BaseBackoff·2^attempt, capped at MaxBackoff and jittered into [w/2, w).
// Callers hold mu (the peer goroutine cannot make progress without the
// recovery anyway).
func (r *ResumingStream) backoff(attempt int) {
	w := r.pol.BaseBackoff << uint(attempt)
	if w <= 0 || w > r.pol.MaxBackoff {
		w = r.pol.MaxBackoff
	}
	r.sleep(w/2 + time.Duration(r.rand()*float64(w/2)))
}

// Close tears the session down; later calls fail fast. In-flight server
// state is abandoned (the server parks, then expires it at the TTL).
func (r *ResumingStream) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken == nil {
		r.broken = fmt.Errorf("server: resuming stream closed")
	}
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}
