package server

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/experiments"
	"astrea/internal/faultinject"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// bigDeadline keeps deadline misses out of tests that exercise the
// configured decoder's answers.
const bigDeadline = uint64(10 * time.Second)

// TestChaosSoak is the chaos acceptance test: seeded connection faults
// (stalls, corruption, short reads, partial writes, mid-frame disconnects)
// between loadgen-style clients and the daemon, plus a decoder that
// panics, errors and stalls on a seeded schedule. Invariants: no panic
// escapes a worker (the test process would die), no goroutines leak after
// Close, and on an undisturbed stream every accepted request yields
// exactly one terminal response.
func TestChaosSoak(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	streams, perStream, cleanShots := 8, 120, 200
	if testing.Short() {
		streams, perStream, cleanShots = 4, 50, 100
	}
	srv := startServer(t, Config{
		Distances:        []int{3},
		P:                1e-3,
		Workers:          4,
		QueueDepth:       64,
		BatchSize:        8,
		HandshakeTimeout: 2 * time.Second,
		IdleTimeout:      2 * time.Second,
		WriteTimeout:     2 * time.Second,
		Envs:             map[int]*montecarlo.Env{3: env},
		factory: faultinject.Flaky(experiments.AstreaFactory, faultinject.FlakyConfig{
			Seed:    7,
			PanicP:  0.08,
			ErrP:    0.04,
			SlowP:   0.05,
			SlowMin: 20 * time.Microsecond,
			SlowMax: 200 * time.Microsecond,
		}),
	})
	proxy, err := faultinject.NewProxy(srv.Addr().String(), faultinject.Config{
		Seed:       99,
		StallP:     0.02,
		StallMin:   100 * time.Microsecond,
		StallMax:   2 * time.Millisecond,
		CorruptP:   0.01,
		DropP:      0.005,
		PartialP:   0.01,
		ShortReadP: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Chaotic streams through the fault-injecting proxy. Their connections
	// may die at any point (that is the point); they only have to fail to
	// take the daemon with them.
	var wg sync.WaitGroup
	var chaosResponses atomic.Int64
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := DialOptions(proxy.Addr(), 3, compress.IDSparse, ClientOptions{
				HandshakeTimeout: time.Second,
				CallTimeout:      time.Second,
			})
			if err != nil {
				return // chaos killed the handshake; fine
			}
			defer client.Close()
			rng := prng.New(uint64(100 + g))
			smp := dem.NewSampler(env.Model)
			s := bitvec.New(env.Model.NumDetectors)
			for i := 0; i < perStream; i++ {
				smp.Sample(rng, s)
				if _, err := client.Decode(uint64(i), uint64(time.Second), s); err != nil {
					return // stream corrupted or dropped; fine
				}
				chaosResponses.Add(1)
			}
		}(g)
	}

	// One undisturbed pipelined stream straight at the daemon carries the
	// exactly-one-terminal-response invariant (byte chaos on the wire
	// would make client-side accounting unsound — a corrupted Seq looks
	// like a duplicate).
	clean, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		CallTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	rng := prng.New(1)
	smp := dem.NewSampler(env.Model)
	syndromes := make([]bitvec.Vec, cleanShots)
	buf := bitvec.New(env.Model.NumDetectors)
	for i := range syndromes {
		smp.Sample(rng, buf)
		syndromes[i] = buf.Clone()
	}
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < cleanShots; i++ {
			if err := clean.Send(uint64(i), uint64(time.Second), syndromes[i]); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	seen := make([]int, cleanShots)
	for got := 0; got < cleanShots; got++ {
		resp, err := clean.Recv()
		if err != nil {
			t.Fatalf("clean stream died after %d of %d responses: %v", got, cleanShots, err)
		}
		if resp.Seq >= uint64(cleanShots) {
			t.Fatalf("terminal response for unknown seq %d", resp.Seq)
		}
		seen[resp.Seq]++
		if seen[resp.Seq] > 1 {
			t.Fatalf("seq %d answered %d times", resp.Seq, seen[resp.Seq])
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("clean stream send: %v", err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d got %d terminal responses, want exactly 1", i, n)
		}
	}

	wg.Wait()
	clean.Close()
	proxy.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if snap.Offered != snap.Accepted+snap.Rejected {
		t.Fatalf("admission accounting broken: %+v", snap)
	}
	// After the drain, every accepted request was answered with a result
	// or a contained-panic error frame.
	if snap.Accepted != snap.Completed+snap.Panics {
		t.Fatalf("accepted %d != completed %d + panics %d after drain",
			snap.Accepted, snap.Completed, snap.Panics)
	}
	if snap.Panics == 0 {
		t.Fatalf("flaky decoder schedule injected no panics across %d decodes", snap.Completed)
	}
	t.Logf("soak: %d chaos responses, %+v", chaosResponses.Load(), snap)
}

// TestWorkerPanicContained injects a decoder panic on exactly one request
// and checks the blast radius: that request gets a StatusInternalError
// frame, the poisoned decoder instance is discarded (not recycled), and
// the same stream keeps decoding.
func TestWorkerPanicContained(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	var calls, built, lastUsed, panickedID atomic.Int64
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Workers:   1,
		BatchSize: 1,
		Envs:      map[int]*montecarlo.Env{3: env},
		factory: func(e *montecarlo.Env) (decoder.Decoder, error) {
			inner, err := experiments.AstreaFactory(e)
			if err != nil {
				return nil, err
			}
			id := built.Add(1)
			return funcDecoder{name: "panic-once", decode: func(s bitvec.Vec) decoder.Result {
				lastUsed.Store(id)
				if calls.Add(1) == 2 {
					panickedID.Store(id)
					panic("injected mid-decode panic")
				}
				return inner.Decode(s)
			}}, nil
		},
	})
	client, err := Dial(srv.Addr().String(), 3, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s := bitvec.New(env.Model.NumDetectors)

	resp, err := client.Decode(1, bigDeadline, s)
	if err != nil || resp.Err != "" || resp.Rejected {
		t.Fatalf("first decode: %+v, %v", resp, err)
	}
	resp, err = client.Decode(2, bigDeadline, s)
	if err != nil {
		t.Fatalf("stream died on the panicking request: %v", err)
	}
	if resp.Seq != 2 || resp.Err == "" || resp.ErrCode != StatusInternalError {
		t.Fatalf("want internal-error frame for seq 2, got %+v", resp)
	}
	if !strings.Contains(resp.Err, "panic") {
		t.Fatalf("error message hides the panic: %q", resp.Err)
	}
	resp, err = client.Decode(3, bigDeadline, s)
	if err != nil || resp.Err != "" || resp.Rejected {
		t.Fatalf("stream unusable after contained panic: %+v, %v", resp, err)
	}
	if lastUsed.Load() == panickedID.Load() {
		t.Fatal("poisoned decoder instance was recycled into the pool")
	}
	snap := srv.Snapshot()
	if snap.Panics != 1 {
		t.Fatalf("panics counter %d, want 1", snap.Panics)
	}
}

// funcDecoder adapts a closure to decoder.Decoder.
type funcDecoder struct {
	name   string
	decode func(bitvec.Vec) decoder.Result
}

func (f funcDecoder) Name() string                       { return f.name }
func (f funcDecoder) Decode(s bitvec.Vec) decoder.Result { return f.decode(s) }

// TestDialHandshakeTimeout covers the client-side hang fix: a server that
// accepts the TCP connection but never sends a Hello-ack must fail the
// dial within the handshake timeout.
func TestDialHandshakeTimeout(t *testing.T) {
	leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // accept and say nothing, forever
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		<-done
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()

	start := time.Now()
	_, err = DialOptions(ln.Addr().String(), 3, compress.IDSparse, ClientOptions{
		HandshakeTimeout: 150 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial hung %v despite a 150ms handshake timeout", elapsed)
	}
}

// TestServerHandshakeTimeoutDropsSilentPeer is the mirror image: a client
// that connects and never sends a Hello is disconnected by the server.
func TestServerHandshakeTimeoutDropsSilentPeer(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances:        []int{3},
		P:                1e-3,
		HandshakeTimeout: 100 * time.Millisecond,
		Envs:             map[int]*montecarlo.Env{3: env},
	})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent peer was answered instead of dropped")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the silent connection past its handshake timeout")
	}
}

// TestIdleReaper checks that a handshaken-but-idle connection is reaped
// after the idle timeout and counted.
func TestIdleReaper(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances:   []int{3},
		P:           1e-3,
		IdleTimeout: 100 * time.Millisecond,
		Envs:        map[int]*montecarlo.Env{3: env},
	})
	client, err := Dial(srv.Addr().String(), 3, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	time.Sleep(500 * time.Millisecond)
	s := bitvec.New(env.Model.NumDetectors)
	if resp, err := client.Decode(1, bigDeadline, s); err == nil {
		t.Fatalf("idle connection survived the reaper: %+v", resp)
	}
	if snap := srv.Snapshot(); snap.IdleReaped == 0 {
		t.Fatalf("idle reap not counted: %+v", snap)
	}
}

// TestMaxConnsRefusal checks the connection cap: the excess connection is
// refused with StatusOverloaded, and closing a connection frees its slot.
func TestMaxConnsRefusal(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		MaxConns:  1,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	addr := srv.Addr().String()
	first, err := Dial(addr, 3, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := Dial(addr, 3, compress.IDSparse); err == nil {
		t.Fatal("connection beyond the cap accepted")
	} else if !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("refusal does not explain the cap: %v", err)
	}
	if snap := srv.Snapshot(); snap.ConnsOverCap == 0 {
		t.Fatalf("over-cap refusal not counted: %+v", snap)
	}
	first.Close()
	// The slot frees once the server notices the close; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(addr, 3, compress.IDSparse)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after closing the first connection: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scriptedServer runs a per-connection protocol script for client tests
// that need exact server behaviour (rejects, mid-call disconnects).
func startScripted(t *testing.T, script func(connIndex int, nc net.Conn)) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(i int, nc net.Conn) {
				defer wg.Done()
				defer nc.Close()
				script(i, nc)
			}(i, nc)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr()
}

// scriptHandshake accepts any Hello with an 8-detector dense stream.
func scriptHandshake(nc net.Conn) bool {
	ft, _, err := ReadFrame(nc, 0)
	if err != nil || ft != FrameHello {
		return false
	}
	return WriteFrame(nc, FrameHelloAck, HelloAck{
		Version:      ProtocolVersion,
		Status:       StatusOK,
		NumDetectors: 8,
		Codec:        compress.IDDense,
		QueueDepth:   4,
	}.AppendTo(nil)) == nil
}

// readSeq reads one decode frame and returns its sequence number.
func readSeq(nc net.Conn) (uint64, bool) {
	ft, payload, err := ReadFrame(nc, 0)
	if err != nil || ft != FrameDecode {
		return 0, false
	}
	req, err := ParseDecodeRequest(payload)
	if err != nil {
		return 0, false
	}
	return req.Seq, true
}

// TestRetryingClientHonorsRejectHint: a scripted server rejects the first
// attempt with a retry-after hint and answers the second; the client must
// back off at least half the hint (jitter floor) and then succeed.
func TestRetryingClientHonorsRejectHint(t *testing.T) {
	leakCheck(t)
	const hint = 20 * time.Millisecond
	addr := startScripted(t, func(_ int, nc net.Conn) {
		if !scriptHandshake(nc) {
			return
		}
		if seq, ok := readSeq(nc); ok {
			WriteFrame(nc, FrameReject, RejectFrame{Seq: seq, RetryAfterNs: uint64(hint.Nanoseconds())}.AppendTo(nil))
		}
		if seq, ok := readSeq(nc); ok {
			WriteFrame(nc, FrameResult, ResultFrame{Seq: seq, ObsMask: 7}.AppendTo(nil))
		}
	})
	rc := NewRetryingClient(addr.String(), 3, compress.IDDense, ClientOptions{}, RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 100 * time.Millisecond, Seed: 5,
	})
	defer rc.Close()
	start := time.Now()
	resp, err := rc.Decode(42, 0, bitvec.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 42 || resp.ObsMask != 7 {
		t.Fatalf("wrong answer after retry: %+v", resp)
	}
	if elapsed := time.Since(start); elapsed < hint/2 {
		t.Fatalf("retried after %v, ignoring the %v retry-after hint", elapsed, hint)
	}
}

// TestRetryingClientReconnects: the first connection dies mid-call; the
// client must redial and retry the request on a fresh connection.
func TestRetryingClientReconnects(t *testing.T) {
	leakCheck(t)
	var conns atomic.Int64
	addr := startScripted(t, func(i int, nc net.Conn) {
		conns.Add(1)
		if !scriptHandshake(nc) {
			return
		}
		seq, ok := readSeq(nc)
		if !ok {
			return
		}
		if i == 0 {
			return // hang up without answering: connection loss mid-call
		}
		WriteFrame(nc, FrameResult, ResultFrame{Seq: seq, ObsMask: 3}.AppendTo(nil))
	})
	rc := NewRetryingClient(addr.String(), 3, compress.IDDense, ClientOptions{}, RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 9,
	})
	defer rc.Close()
	resp, err := rc.Decode(1, 0, bitvec.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ObsMask != 3 {
		t.Fatalf("wrong answer after reconnect: %+v", resp)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("served %d connections, want 2 (original + reconnect)", got)
	}
}
