package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
)

// DefaultHandshakeTimeout bounds Dial/NewClient's connect-and-hello
// exchange unless overridden: a server that accepts the TCP connection but
// never answers the Hello must fail the dial, not hang it forever.
const DefaultHandshakeTimeout = 10 * time.Second

// ClientOptions tunes a client stream's timeouts and wire features.
type ClientOptions struct {
	// HandshakeTimeout bounds the TCP connect plus Hello/HelloAck
	// exchange. 0 means DefaultHandshakeTimeout; negative disables.
	HandshakeTimeout time.Duration
	// CallTimeout bounds each Send and Recv (and therefore Decode). 0
	// disables — pipelining callers often want to block on Recv
	// indefinitely while a sender goroutine keeps the stream fed.
	CallTimeout time.Duration
	// Features is the wire feature-bit set to offer (FeatureChecksum,
	// FeatureProbe, FeatureStream, FeatureStreamResume); the server accepts
	// the subset it supports (see Client.Features).
	Features uint32
}

func (o ClientOptions) handshakeTimeout() time.Duration {
	switch {
	case o.HandshakeTimeout == 0:
		return DefaultHandshakeTimeout
	case o.HandshakeTimeout < 0:
		return 0
	}
	return o.HandshakeTimeout
}

// maxQueuedSend caps the request frames Send leaves queued: a Send that
// takes the queue past it flushes the queue itself.
const maxQueuedSend = 16 << 10

// Client is one decode stream against an astread daemon. Send and Recv are
// independently locked, so one goroutine may pipeline requests while
// another drains responses (the load generator's shape); a single Send or
// Recv must not be called concurrently with itself.
//
// Send queues its request frame instead of writing it, and the queue leaves
// in one write the next time the read half is about to block on the socket
// — when Recv or Decode needs bytes that are not buffered yet — or at
// once when a Send finds the read half already blocked. So a pipelining
// caller pays one write per burst of requests, a depth-1 Decode still pays
// exactly one, and a frame is never stranded, even behind a sender goroutine
// that never calls Recv. A stream's rounds frames queue the same way, under
// their own rule (see Stream.SendRounds): they are written at once only
// while the rounds already written are too few to force a commit. Every
// other frame (handshake, stream open, resume and close) is written at
// once, behind whatever is queued. Close drops queued frames: their answers
// could never be read anyway.
type Client struct {
	conn        net.Conn
	br          *bufio.Reader
	codec       compress.Codec
	n           int
	queue       uint32
	callTimeout time.Duration
	// features is the accepted feature-bit set; crc mirrors its
	// FeatureChecksum bit (checked framing both ways after the handshake).
	features uint32
	crc      bool
	// fp is the server's decoding-configuration fingerprint at handshake
	// time; fpSet is its full live fingerprint set — more than one entry
	// means the server was draining an old generation.
	fp    uint64
	fpSet []uint64

	// Write half. wbuf holds the frames queued for the next flush, in send
	// order (wmu); enc is the codec's scratch for the syndrome being encoded.
	// werr is the sticky failure that closed the stream — the first failed
	// flush, or Close — which every later Send and Recv returns.
	wmu  sync.Mutex
	wbuf []byte
	enc  []byte
	werr atomic.Pointer[error]
	// rowsQueued counts the stream rounds inside wbuf's rounds frames (wmu):
	// an open stream's written-rounds watermark is its sent count minus it.
	rowsQueued uint64
	// parked is set while the read half is in, or about to enter, a socket
	// read: a Send that finds it set flushes the queue itself.
	parked atomic.Bool

	// rbuf is the inbound frame body, reused across reads (rmu): a payload
	// readFrame returns is valid only until the next read.
	rmu  sync.Mutex
	rbuf []byte
}

// readHalf is what the client's bufio.Reader reads through. bufio calls Read
// only when no whole frame is buffered — exactly when Recv, a stream
// exchange or the handshake is about to block — so Read first sends the
// queued requests whose answers it may be about to wait for.
type readHalf struct{ c *Client }

func (r readHalf) Read(p []byte) (int, error) {
	c := r.c
	// parked goes up before the lock is tried, and Send checks it after it
	// appends: whichever of the two comes second writes the frame.
	c.parked.Store(true)
	defer c.parked.Store(false)
	// TryLock, never Lock: a sender blocked in Write on a full socket holds
	// wmu, and waiting for it here would stop the reads that let the peer
	// drain that socket.
	if c.wmu.TryLock() {
		err := c.flushLocked()
		c.wmu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	n, err := c.conn.Read(p)
	if err != nil {
		if werr := c.writeErr(); werr != nil {
			err = werr // the read failed because the stream was closed under it
		}
	}
	return n, err
}

// Dial connects, performs the handshake for the given distance and codec
// wire ID (compress.IDDense/IDSparse/IDRice), and returns a ready stream.
// The handshake is bounded by DefaultHandshakeTimeout; use DialOptions to
// change it.
func Dial(addr string, distance int, codecID uint8) (*Client, error) {
	return DialOptions(addr, distance, codecID, ClientOptions{})
}

// DialOptions is Dial with explicit timeouts.
func DialOptions(addr string, distance int, codecID uint8, o ClientOptions) (*Client, error) {
	var nc net.Conn
	var err error
	if to := o.handshakeTimeout(); to > 0 {
		nc, err = net.DialTimeout("tcp", addr, to)
	} else {
		nc, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	c, err := NewClientOptions(nc, distance, codecID, o)
	if err != nil {
		//lint:allow errwrap teardown of a conn whose handshake failed; the handshake error is the one returned
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the handshake over an existing connection (loopback
// pipes in tests, TCP in production) with default timeouts.
func NewClient(nc net.Conn, distance int, codecID uint8) (*Client, error) {
	return NewClientOptions(nc, distance, codecID, ClientOptions{})
}

// NewClientOptions is NewClient with explicit timeouts.
func NewClientOptions(nc net.Conn, distance int, codecID uint8, o ClientOptions) (*Client, error) {
	c := &Client{conn: nc}
	c.br = bufio.NewReader(readHalf{c})
	// One deadline covers the whole exchange, so a server that accepts the
	// connection but never sends a Hello-ack cannot hang the dial.
	if to := o.handshakeTimeout(); to > 0 {
		if err := nc.SetDeadline(time.Now().Add(to)); err != nil {
			// An unarmable deadline means the conn is already dead; dialing
			// on without it is the silent-server hang this timeout fixed.
			return nil, fmt.Errorf("server: arming handshake deadline: %w", err)
		}
		defer nc.SetDeadline(time.Time{})
	}
	hello := Hello{
		Version:  ProtocolVersion,
		Distance: uint16(distance),
		Codec:    codecID,
		Features: o.Features,
	}
	// The handshake itself travels unchecked (c.crc is still false).
	if err := c.writeFrame(FrameHello, hello.AppendTo(nil)); err != nil {
		return nil, err
	}
	t, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	if t != FrameHelloAck {
		return nil, fmt.Errorf("server: expected hello-ack, got frame type %d", t)
	}
	ack, err := ParseHelloAck(payload)
	if err != nil {
		return nil, err
	}
	if ack.Status != StatusOK {
		return nil, fmt.Errorf("server: handshake refused (status %d): %s", ack.Status, ack.Message)
	}
	c.features = ack.Features
	c.crc = ack.Features&FeatureChecksum != 0
	c.fp = ack.Fingerprint
	c.fpSet = ack.FingerprintSet
	codec, err := compress.ForID(ack.Codec, uint(ack.RiceK))
	if err != nil {
		return nil, err
	}
	c.codec = codec
	c.n = int(ack.NumDetectors)
	c.queue = ack.QueueDepth
	// Armed only now, so the Hello's flush stays under the handshake deadline.
	c.callTimeout = o.CallTimeout
	return c, nil
}

// NumDetectors is the syndrome length of the negotiated distance.
func (c *Client) NumDetectors() int { return c.n }

// QueueDepth is the server's advertised queue bound.
func (c *Client) QueueDepth() int { return int(c.queue) }

// CodecName names the negotiated codec.
func (c *Client) CodecName() string { return c.codec.Name() }

// Features is the accepted feature-bit set.
func (c *Client) Features() uint32 { return c.features }

// Fingerprint returns the server's decoding-configuration digest for the
// negotiated distance at handshake time.
func (c *Client) Fingerprint() uint64 { return c.fp }

// FingerprintSet returns every fingerprint the server answered for at
// handshake time, current generation first. More than one entry means a
// superseded generation was still draining (a rotation transition window).
func (c *Client) FingerprintSet() []uint64 { return c.fpSet }

// writeFrame appends one frame under the negotiated framing behind whatever
// Send queued and flushes, so it can neither overtake nor strand a queued
// request; callers hold wmu.
func (c *Client) writeFrame(t FrameType, payload []byte) error {
	c.wbuf = appendFrame(c.wbuf, t, payload, c.crc)
	return c.flushLocked()
}

// flushLocked writes every queued frame with one Write, wherever it runs —
// Send, the read half, or a frame that must leave at once; callers hold wmu,
// which serialises whole frames onto the conn. Each flush arms CallTimeout's
// write deadline, which bounds a wedged peer. A failure is sticky and closes
// the conn: a partial write has torn the framing, and a read half parked on
// answers to frames that never left wakes up with the error.
func (c *Client) flushLocked() error {
	err := c.writeErr()
	if err == nil && len(c.wbuf) > 0 {
		if c.callTimeout > 0 {
			if err = c.conn.SetWriteDeadline(time.Now().Add(c.callTimeout)); err != nil {
				err = fmt.Errorf("server: arming send deadline: %w", err)
			}
		}
		if err == nil {
			_, err = c.conn.Write(c.wbuf)
		}
		if err != nil {
			// A variable of its own, so only a failed flush allocates one;
			// a Close that got in first keeps its own failure.
			failure := err
			c.werr.CompareAndSwap(nil, &failure)
			//lint:allow errwrap teardown of a stream that already failed; the recorded failure is what callers see
			c.conn.Close()
			err = c.writeErr()
		}
	}
	c.wbuf, c.rowsQueued = resetFrameBuf(c.wbuf), 0
	return err
}

// writeErr is the stream's sticky failure, nil while it is healthy.
func (c *Client) writeErr() error {
	if p := c.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// readFrame reads one frame under the negotiated framing; callers hold rmu.
// The payload aliases the client's reused read buffer and is valid only
// until the next readFrame — callers copy what they keep. A failed stream
// answers with its sticky failure, even with frames still buffered.
func (c *Client) readFrame() (t FrameType, payload []byte, err error) {
	if err := c.writeErr(); err != nil {
		return 0, nil, err
	}
	t, payload, c.rbuf, err = readFrame(c.br, c.rbuf, 0, c.crc)
	return t, payload, err
}

// Send encodes one syndrome and queues its request frame behind those
// already queued. deadlineNs is the request's real-time budget (0 uses the
// server default). The syndrome length must equal NumDetectors.
//
// Send makes no syscall unless the read half is blocked on the socket —
// then nothing else would carry the frame, so Send flushes — or the queue
// has passed maxQueuedSend. Otherwise the frame leaves with the read half's
// next flush, before it blocks. A failed flush, wherever it ran, fails
// every later Send.
func (c *Client) Send(seq, deadlineNs uint64, s bitvec.Vec) error {
	if s.Len() != c.n {
		return fmt.Errorf("server: syndrome has %d bits, stream expects %d", s.Len(), c.n)
	}
	c.wmu.Lock()
	err := c.writeErr()
	if err == nil {
		// The request is encoded in place between the frame brackets: the
		// only copy is the codec's scratch into the frame.
		start := len(c.wbuf)
		c.enc = c.codec.Encode(s, c.enc[:0])
		req := DecodeRequest{Seq: seq, DeadlineNs: deadlineNs, Payload: c.enc}
		c.wbuf = endFrame(req.AppendTo(beginFrame(c.wbuf, FrameDecode)), start, c.crc)
		if len(c.wbuf) >= maxQueuedSend {
			err = c.flushLocked()
		}
	}
	c.wmu.Unlock()
	// Checked after the append and outside wmu: a read half whose TryLock
	// lost to this Send has already set parked, so this Send carries the
	// frame.
	if err == nil && c.parked.Load() {
		c.wmu.Lock()
		err = c.flushLocked()
		c.wmu.Unlock()
	}
	return err
}

// Response is one server answer, a Result, Reject or Error frame in
// unified form.
type Response struct {
	Seq uint64

	// Rejected reports backpressure: nothing was decoded and the request
	// should be retried after RetryAfterNs.
	Rejected     bool
	RetryAfterNs uint64

	// Err carries a per-request server error: an undecodable payload
	// (ErrCode StatusProtocolError) or a contained decoder fault (ErrCode
	// StatusInternalError). Either way the stream stays usable.
	Err     string
	ErrCode uint8

	// Decode outcome (valid when !Rejected and Err == "").
	ObsMask      uint64
	WeightMilli  uint64
	SojournNs    uint64
	DeadlineMiss bool
	RealTime     bool
	Skipped      bool
	// Degraded mirrors FlagDegraded, which the request path never sets:
	// always false on a request's response.
	Degraded bool

	// Fingerprint names the decoding-configuration generation that produced
	// this result, so each answer stays attributable to exact tables across
	// a mid-connection artifact hot-swap.
	Fingerprint uint64
}

// Recv returns the next response frame. When none is buffered, it first
// flushes the requests Send queued, then blocks on the socket.
func (c *Client) Recv() (Response, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.callTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return Response{}, fmt.Errorf("server: arming recv deadline: %w", err)
		}
	}
	t, payload, err := c.readFrame()
	if err != nil {
		// A checksum mismatch leaves the framing intact but the response
		// unidentifiable (its sequence number is untrustworthy), so the
		// caller must treat the stream as unrecoverable and re-dial.
		return Response{}, err
	}
	switch t {
	case FrameResult:
		r, err := ParseResultFrame(payload)
		if err != nil {
			return Response{}, err
		}
		return Response{
			Seq:          r.Seq,
			ObsMask:      r.ObsMask,
			WeightMilli:  r.WeightMilli,
			SojournNs:    r.SojournNs,
			DeadlineMiss: r.Flags&FlagDeadlineMiss != 0,
			RealTime:     r.Flags&FlagRealTime != 0,
			Skipped:      r.Flags&FlagSkipped != 0,
			Degraded:     r.Flags&FlagDegraded != 0,
			Fingerprint:  r.Fingerprint,
		}, nil
	case FrameReject:
		r, err := ParseRejectFrame(payload)
		if err != nil {
			return Response{}, err
		}
		return Response{Seq: r.Seq, Rejected: true, RetryAfterNs: r.RetryAfterNs}, nil
	case FrameError:
		e, err := ParseErrorFrame(payload)
		if err != nil {
			return Response{}, err
		}
		return Response{Seq: e.Seq, Err: e.Message, ErrCode: e.Code}, nil
	default:
		// Hello/HelloAck/Decode never arrive post-handshake toward the
		// client, and it sends no Ping to be answered by a Pong; anything
		// else is a peer bug.
		return Response{}, fmt.Errorf("server: unexpected frame type %d", t)
	}
}

// Decode is the synchronous convenience path: one request, one response,
// and one write — Recv flushes the request before it blocks. It requires
// exclusive use of the stream (no concurrent Send/Recv).
func (c *Client) Decode(seq, deadlineNs uint64, s bitvec.Vec) (Response, error) {
	if err := c.Send(seq, deadlineNs, s); err != nil {
		return Response{}, err
	}
	return c.Recv()
}

// errClientClosed is the sticky failure Close records.
var errClientClosed = fmt.Errorf("server: client closed: %w", net.ErrClosed)

// Close tears the stream down. Request frames Send queued and no flush has
// written yet are dropped — their answers could never be read — and every
// later Send and Recv fails.
func (c *Client) Close() error {
	c.werr.CompareAndSwap(nil, &errClientClosed)
	return c.conn.Close()
}
