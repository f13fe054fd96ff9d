package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/montecarlo"
)

// tapConn is a client's conn that forwards to a real one, recording the
// bytes of every Write, and fails writes once failing is set.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	writes  [][]byte
	failing bool
	closed  bool
}

var errInjectedWrite = errors.New("injected write failure")

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failing {
		return 0, errInjectedWrite
	}
	c.writes = append(c.writes, bytes.Clone(b))
	return c.Conn.Write(b)
}

func (c *tapConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

// take returns the writes recorded since the last take.
func (c *tapConn) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

func (c *tapConn) fail() {
	c.mu.Lock()
	c.failing = true
	c.mu.Unlock()
}

// queueTestDaemon serves d=3 on loopback and returns its address plus
// syndromes to send it.
func queueTestDaemon(t *testing.T) (string, []bitvec.Vec) {
	t.Helper()
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	return srv.Addr().String(), sampleLoadSyndromes(env, 3, 64)
}

// dialTap dials addr through a tapConn, with the handshake's writes
// already taken.
func dialTap(t *testing.T, addr string, o ClientOptions) (*Client, *tapConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: nc}
	c, err := NewClientOptions(tap, 3, compress.IDSparse, o)
	if err != nil {
		nc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	tap.take()
	return c, tap
}

// TestQueuedSendsLeaveInOneWrite pins the client's write half at the socket
// boundary: Sends only queue, and the first Recv — about to block on their
// answers — writes all of them at once, whole frames in send order.
func TestQueuedSendsLeaveInOneWrite(t *testing.T) {
	leakCheck(t)
	addr, syn := queueTestDaemon(t)
	for _, features := range []uint32{0, FeatureChecksum} {
		c, tap := dialTap(t, addr, ClientOptions{Features: features})
		const depth = 8
		for seq := uint64(0); seq < depth; seq++ {
			if err := c.Send(seq, 1e9, syn[seq]); err != nil {
				t.Fatal(err)
			}
		}
		if w := tap.take(); len(w) != 0 {
			t.Fatalf("features %#x: %d Sends made %d writes, want 0", features, depth, len(w))
		}
		for got := 0; got < depth; got++ {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		writes := tap.take()
		if len(writes) != 1 {
			t.Fatalf("features %#x: %d queued requests left in %d writes, want 1", features, depth, len(writes))
		}
		read := ReadFrame
		if features&FeatureChecksum != 0 {
			read = ReadFrameChecked
		}
		var seqs []uint64
		for r := bytes.NewReader(writes[0]); r.Len() > 0; {
			ft, payload, err := read(r, 0)
			if err != nil {
				t.Fatalf("features %#x: the write does not end on a frame boundary: %v", features, err)
			}
			req, err := ParseDecodeRequest(payload)
			if ft != FrameDecode || err != nil {
				t.Fatalf("features %#x: frame type %d in the write (%v), want only decode requests", features, ft, err)
			}
			seqs = append(seqs, req.Seq)
		}
		if fmt.Sprint(seqs) != "[0 1 2 3 4 5 6 7]" {
			t.Fatalf("features %#x: requests left in order %v, want send order", features, seqs)
		}
	}
}

// TestQueuedSendReachesParkedReader is the no-stranding rule: a Send from
// one goroutine while another is blocked in Recv — the only call that
// would otherwise flush — must reach the daemon with no further client
// call. Scheduler jitter on both sides moves the Send across the read half's
// park-then-TryLock window; every fifth round waits until the reader is
// known to be parked first.
func TestQueuedSendReachesParkedReader(t *testing.T) {
	leakCheck(t)
	addr, syn := queueTestDaemon(t)
	c, err := Dial(addr, 3, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type answer struct {
		resp Response
		err  error
	}
	answers := make(chan answer, 1)
	for i := 0; i < 1000; i++ {
		go func() {
			for range i % 3 {
				runtime.Gosched()
			}
			resp, err := c.Recv()
			answers <- answer{resp, err}
		}()
		if i%5 == 0 {
			for !c.parked.Load() {
				runtime.Gosched()
			}
		}
		for range (i / 3) % 4 {
			runtime.Gosched()
		}
		if err := c.Send(uint64(i), 1e9, syn[i%len(syn)]); err != nil {
			t.Fatal(err)
		}
		select {
		case a := <-answers:
			if a.err != nil || a.resp.Seq != uint64(i) {
				t.Fatalf("round %d: answer %+v, %v", i, a.resp, a.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the request never left the client: queued behind a parked reader", i)
		}
	}
}

// TestQueuedSendStickyError pins the failure contract: a flush that fails —
// in the read half or in Send itself — closes the stream, and the failure
// comes back from every later Send and Recv.
func TestQueuedSendStickyError(t *testing.T) {
	leakCheck(t)
	addr, syn := queueTestDaemon(t)
	check := func(what string, c *Client, tap *tapConn) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if err := c.Send(1, 1e9, syn[1]); !errors.Is(err, errInjectedWrite) {
				t.Fatalf("%s: Send %d after the failed flush returned %v", what, i, err)
			}
			if _, err := c.Recv(); !errors.Is(err, errInjectedWrite) {
				t.Fatalf("%s: Recv %d after the failed flush returned %v", what, i, err)
			}
		}
		tap.mu.Lock()
		defer tap.mu.Unlock()
		if !tap.closed {
			t.Fatalf("%s: the failed flush left the conn open", what)
		}
	}

	// Recv's flush fails; the queued Send had returned nil.
	c, tap := dialTap(t, addr, ClientOptions{})
	tap.fail()
	if err := c.Send(0, 1e9, syn[0]); err != nil {
		t.Fatalf("a queued Send made a syscall: %v", err)
	}
	if _, err := c.Recv(); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Recv over a failing flush returned %v", err)
	}
	check("read-side flush", c, tap)

	// Send's own flush fails once the queue passes its cap.
	c, tap = dialTap(t, addr, ClientOptions{})
	tap.fail()
	var err error
	for seq := uint64(0); err == nil; seq++ {
		if seq > maxQueuedSend {
			t.Fatal("the send queue grew past its cap without a flush")
		}
		err = c.Send(seq, 1e9, syn[seq%uint64(len(syn))])
	}
	if !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Send over a failing flush returned %v", err)
	}
	check("send-side flush", c, tap)
}
