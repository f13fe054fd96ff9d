package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"astrea/internal/astrea"
	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/experiments"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// testEnv shares one environment per distance across the package's tests
// via the process-wide montecarlo cache; Env is immutable and safe to
// share.
func testEnv(t *testing.T, d int) *montecarlo.Env {
	t.Helper()
	env, err := montecarlo.SharedEnv(d, d, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// startServer launches srv on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return startServerOn(t, cfg, func(ln net.Listener) net.Listener { return ln })
}

// startServerOn is startServer with the loopback listener wrapped (a fault
// schedule on every accepted connection, say).
func startServerOn(t *testing.T, cfg Config, wrap func(net.Listener) net.Listener) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln = wrap(ln)
	// Register the listener before Serve's goroutine runs so srv.Addr() is
	// valid as soon as this helper returns.
	srv.mu.Lock()
	srv.ln = ln
	srv.mu.Unlock()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// slowDecoder delays every decode, letting tests overflow the bounded
// queue deterministically.
type slowDecoder struct {
	inner decoder.Decoder
	delay time.Duration
}

func (s slowDecoder) Name() string { return s.inner.Name() + " (slowed)" }
func (s slowDecoder) Decode(v bitvec.Vec) decoder.Result {
	time.Sleep(s.delay)
	return s.inner.Decode(v)
}

// TestServeEndToEnd is the acceptance test: an in-process daemon on a
// loopback listener, ≥1000 DEM-sampled d=5 syndromes driven through the
// load-generator client path, every response checked against the same
// decoder run locally, and the stats endpoint checked for consistent
// counts.
func TestServeEndToEnd(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 5)
	srv := startServer(t, Config{
		Distances: []int{5},
		P:         1e-3,
		Decoder:   "astrea",
		Envs:      map[int]*montecarlo.Env{5: env},
	})
	stats := httptest.NewServer(srv.StatsHandler())
	defer stats.Close()

	const shots = 1200
	rep, err := RunLoad(LoadConfig{
		Addr:       srv.Addr().String(),
		Distance:   5,
		P:          1e-3,
		Codec:      compress.IDSparse,
		Shots:      shots,
		DeadlineNs: 1000, // the paper's 1 µs budget, now across a real socket
		Seed:       42,
		Verify:     true,
		env:        env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != shots || rep.Accepted+rep.Rejected+rep.Errored != shots {
		t.Fatalf("response accounting broken: %+v", rep)
	}
	if rep.Errored != 0 {
		t.Fatalf("%d requests errored", rep.Errored)
	}
	if rep.Accepted < shots/2 {
		t.Fatalf("only %d of %d accepted (queue default is deep enough for this load)", rep.Accepted, shots)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d responses disagree with the local decoder", rep.Mismatches)
	}
	if len(rep.RTTNs) != rep.Accepted || len(rep.ServerSojournNs) != rep.Accepted {
		t.Fatalf("latency sample counts inconsistent: %d/%d/%d", len(rep.RTTNs), len(rep.ServerSojournNs), rep.Accepted)
	}

	// The stats endpoint must agree with the client-side view.
	resp, err := stats.Client().Get(stats.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Offered != int64(shots) {
		t.Fatalf("stats offered %d, want %d", snap.Offered, shots)
	}
	if snap.Accepted+snap.Rejected != snap.Offered {
		t.Fatalf("accepted %d + rejected %d != offered %d", snap.Accepted, snap.Rejected, snap.Offered)
	}
	if snap.Completed != int64(rep.Accepted) || snap.Rejected != int64(rep.Rejected) {
		t.Fatalf("server counts (%d completed, %d rejected) disagree with client (%d, %d)",
			snap.Completed, snap.Rejected, rep.Accepted, rep.Rejected)
	}
	// With the paper's 1 µs budget crossing a real socket, a queued request's
	// sojourn almost always consumes the whole deadline; its answer still
	// comes from the pool's own decoder, late, so nothing is degraded.
	if snap.Degraded != 0 {
		t.Fatalf("server counted %d degraded answers, want 0", snap.Degraded)
	}
	// Deadline-miss accounting: the rate must be computed from the miss
	// count, and the server-flagged responses must match it.
	if snap.Completed > 0 {
		want := float64(snap.DeadlineMisses) / float64(snap.Completed)
		if math.Abs(snap.DeadlineMissRate-want) > 1e-9 {
			t.Fatalf("miss rate %v != misses/completed %v", snap.DeadlineMissRate, want)
		}
	}
	if int64(rep.DeadlineMisses) != snap.DeadlineMisses {
		t.Fatalf("client saw %d deadline misses, server counted %d", rep.DeadlineMisses, snap.DeadlineMisses)
	}
	if snap.LatencyNs.Max <= 0 || snap.LatencyNs.P50 < 0 || snap.ThroughputPerSec <= 0 {
		t.Fatalf("degenerate latency/throughput stats: %+v", snap)
	}
	if snap.QueueCap != 1024 {
		t.Fatalf("queue cap %d", snap.QueueCap)
	}
}

// TestBackpressure overflows a 2-deep queue behind one deliberately slow
// worker and checks that the overflow is rejected with a retry-after hint
// while everything accepted still decodes correctly.
func TestBackpressure(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances:  []int{3},
		P:          1e-3,
		QueueDepth: 2,
		BatchSize:  1,
		Workers:    1,
		Envs:       map[int]*montecarlo.Env{3: env},
		factory: func(e *montecarlo.Env) (decoder.Decoder, error) {
			inner, err := experiments.AstreaFactory(e)
			if err != nil {
				return nil, err
			}
			return slowDecoder{inner: inner, delay: 2 * time.Millisecond}, nil
		},
	})

	const shots = 80
	rep, err := RunLoad(LoadConfig{
		Addr:     srv.Addr().String(),
		Distance: 3,
		P:        1e-3,
		Codec:    compress.IDDense,
		Shots:    shots,
		Seed:     7,
		Verify:   true,
		env:      env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted+rep.Rejected != shots || rep.Errored != 0 {
		t.Fatalf("accounting broken: %+v", rep)
	}
	if rep.Rejected == 0 {
		t.Fatalf("no backpressure rejections despite a 2-deep queue and %d rapid-fire shots", shots)
	}
	if rep.Accepted == 0 {
		t.Fatal("everything rejected; the queue never drained")
	}
	if rep.MaxRetryAfterNs == 0 {
		t.Fatal("rejections carried no retry-after hint")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d accepted responses disagree with the local decoder", rep.Mismatches)
	}
	snap := srv.Snapshot()
	if snap.Accepted+snap.Rejected != snap.Offered || snap.Offered != int64(shots) {
		t.Fatalf("stats accounting broken: %+v", snap)
	}
}

// TestHandshakeRefusals covers the three refusal codes.
func TestHandshakeRefusals(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	addr := srv.Addr().String()

	if _, err := Dial(addr, 9, compress.IDSparse); err == nil {
		t.Fatal("unserved distance accepted")
	}
	if _, err := Dial(addr, 3, 99); err == nil {
		t.Fatal("unknown codec accepted")
	}
	// Wrong protocol version.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WriteFrame(nc, FrameHello, Hello{Version: 99, Distance: 3, Codec: 0}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := ReadFrame(nc, 0)
	if err != nil || ft != FrameHelloAck {
		t.Fatalf("expected hello-ack, got %d (%v)", ft, err)
	}
	ack, err := ParseHelloAck(payload)
	if err != nil || ack.Status != StatusBadVersion {
		t.Fatalf("expected bad-version refusal, got %+v (%v)", ack, err)
	}
	// Non-Hello first frame: refused as a protocol-sequence violation,
	// distinct from a version mismatch.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	if err := WriteFrame(nc2, FrameDecode, DecodeRequest{Seq: 1}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err = ReadFrame(nc2, 0)
	if err != nil || ft != FrameHelloAck {
		t.Fatalf("expected hello-ack, got %d (%v)", ft, err)
	}
	ack, err = ParseHelloAck(payload)
	if err != nil || ack.Status != StatusProtocolError {
		t.Fatalf("expected protocol-error refusal, got %+v (%v)", ack, err)
	}
}

// TestV2HelloRefusedByVersion: a v2 peer's Hello, in either of its 8- and
// 12-byte forms, is refused with StatusBadVersion and a message naming both
// versions — not with StatusProtocolError, although v3 frames no 8-byte
// Hello. The status sits where v2's ack header put it, so a v2 client reads
// the refusal's status too.
func TestV2HelloRefusedByVersion(t *testing.T) {
	leakCheck(t)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: testEnv(t, 3)},
	})
	v2 := Hello{Version: 2, Distance: 3, Codec: compress.IDSparse, Features: FeatureChecksum}.AppendTo(nil)
	for _, hello := range [][]byte{v2[:8], v2} {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(nc, FrameHello, hello); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := ReadFrame(nc, 0)
		nc.Close()
		if err != nil || ft != FrameHelloAck {
			t.Fatalf("%d-byte v2 hello: expected hello-ack, got %d (%v)", len(hello), ft, err)
		}
		ack, err := ParseHelloAck(payload)
		if err != nil || ack.Status != StatusBadVersion || payload[1] != StatusBadVersion {
			t.Fatalf("%d-byte v2 hello: got %+v (%v), want a bad-version refusal", len(hello), ack, err)
		}
		if !strings.Contains(ack.Message, "v2") || !strings.Contains(ack.Message, "v3") {
			t.Fatalf("%d-byte v2 hello: refusal message %q does not name both versions", len(hello), ack.Message)
		}
	}
}

// TestMalformedPayloadGetsErrorFrame checks that an undecodable syndrome
// payload yields a per-request error frame and leaves the stream usable.
func TestMalformedPayloadGetsErrorFrame(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WriteFrame(nc, FrameHello, Hello{Version: ProtocolVersion, Distance: 3, Codec: compress.IDSparse}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(nc, 0); err != nil || ft != FrameHelloAck {
		t.Fatalf("handshake failed: %d, %v", ft, err)
	}
	// A sparse payload claiming 200 set bits but carrying none.
	bad := DecodeRequest{Seq: 5, Payload: []byte{200}}
	if err := WriteFrame(nc, FrameDecode, bad.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := ReadFrame(nc, 0)
	if err != nil || ft != FrameError {
		t.Fatalf("expected error frame, got type %d (%v)", ft, err)
	}
	ef, err := ParseErrorFrame(payload)
	if err != nil || ef.Seq != 5 {
		t.Fatalf("error frame %+v (%v)", ef, err)
	}
	// The stream survives: a well-formed request still decodes.
	good := DecodeRequest{Seq: 6, Payload: (compress.Sparse{}).Encode(bitvec.New(env.Model.NumDetectors), nil)}
	if err := WriteFrame(nc, FrameDecode, good.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err = ReadFrame(nc, 0)
	if err != nil || ft != FrameResult {
		t.Fatalf("expected result after error, got type %d (%v)", ft, err)
	}
	if r, err := ParseResultFrame(payload); err != nil || r.Seq != 6 {
		t.Fatalf("result %+v (%v)", r, err)
	}
	if srv.Snapshot().Malformed != 1 {
		t.Fatalf("malformed counter %d", srv.Snapshot().Malformed)
	}
}

// TestConcurrentStreamsShareGWT exercises the decoder pool's concurrency
// contract under the race detector: many client streams decode in parallel
// against one shared immutable GWT, each worker holding its own pooled
// decoder instance, and every response must still match a locally run
// decoder.
func TestConcurrentStreamsShareGWT(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Workers:   4,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	addr := srv.Addr().String()

	const streams = 6
	const perStream = 60
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := Dial(addr, 3, compress.IDRice)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			local, err := experiments.AstreaFactory(env)
			if err != nil {
				errs <- err
				return
			}
			rng := prng.New(uint64(1000 + g))
			smp := dem.NewSampler(env.Model)
			s := bitvec.New(env.Model.NumDetectors)
			for i := 0; i < perStream; i++ {
				smp.Sample(rng, s)
				// A generous deadline keeps deadline misses out of the way:
				// this test verifies the configured decoder's answers.
				resp, err := client.Decode(uint64(i), bigDeadline, s)
				if err != nil {
					errs <- err
					return
				}
				if resp.Rejected || resp.Err != "" {
					continue // backpressure under -race slowness is fine
				}
				if want := local.Decode(s).ObsPrediction; resp.ObsMask != want {
					errs <- fmt.Errorf("stream %d shot %d: obs %d != local %d", g, i, resp.ObsMask, want)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseUnderLoad is a regression test for a shutdown race: Close used
// to close(s.queue) while serveConn goroutines could still be holding a
// parsed frame they were about to enqueue, so a SIGTERM-style drain under
// live traffic could panic with "send on closed channel". Flood the server
// with decode frames from raw writers that never read responses, then
// close it mid-stream; any surviving send would crash the test process.
func TestCloseUnderLoad(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	// Heavier than astrea.MaxHW, so every request takes the queue rather
	// than being decoded inline on its reader: the race this guards is
	// Close closing the queue under a reader about to enqueue.
	heavy := bitvec.New(env.Model.NumDetectors)
	for i := 0; i <= astrea.MaxHW; i++ {
		heavy.Set(i * env.Model.NumDetectors / (astrea.MaxHW + 1))
	}
	payload := (compress.Sparse{}).Encode(heavy, nil)
	for iter := 0; iter < 5; iter++ {
		srv := startServer(t, Config{
			Distances:  []int{3},
			P:          1e-3,
			Workers:    2,
			QueueDepth: 4,
			Envs:       map[int]*montecarlo.Env{3: env},
		})
		addr := srv.Addr().String()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer nc.Close()
				if err := WriteFrame(nc, FrameHello, Hello{Version: ProtocolVersion, Distance: 3, Codec: compress.IDSparse}.AppendTo(nil)); err != nil {
					return
				}
				if ft, _, err := ReadFrame(nc, 0); err != nil || ft != FrameHelloAck {
					return
				}
				// Flood without reading responses so serveConn stays busy
				// parsing and enqueueing until its conn is torn down.
				for i := uint64(0); ; i++ {
					req := DecodeRequest{Seq: i, Payload: payload}
					if err := WriteFrame(nc, FrameDecode, req.AppendTo(nil)); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if n := srv.Snapshot().Inline; n != 0 {
			t.Fatalf("flood: %d requests decoded inline; want every request queued", n)
		}
	}
}

// TestDecoderNamesValidated checks New's eager decoder validation.
func TestDecoderNamesValidated(t *testing.T) {
	env := testEnv(t, 3)
	if _, err := New(Config{Distances: []int{3}, Decoder: "nope", Envs: map[int]*montecarlo.Env{3: env}}); err == nil {
		t.Fatal("unknown decoder name accepted")
	}
	for _, name := range []string{"astrea", "astrea-g", "mwpm", "mwpm-sparse", "mwpm-dense", "uf", "uf-unweighted"} {
		srv, err := New(Config{Distances: []int{3}, Decoder: name, Envs: map[int]*montecarlo.Env{3: env}})
		if err != nil {
			t.Fatalf("decoder %q: %v", name, err)
		}
		srv.Close()
	}
}

// TestStatsEngineAttribution pins the exact-engine names the /stats snapshot
// reports per served distance: "mwpm" pools are served by the dense engine
// (the sparse one stays reachable as "mwpm-sparse"), and the attribution
// follows the pool, not the decoder name.
func TestStatsEngineAttribution(t *testing.T) {
	env := testEnv(t, 3)
	for _, tc := range []struct {
		decoder, engine string
	}{
		{"mwpm", "dense"},
		{"mwpm-sparse", "sparse"},
		{"mwpm-dense", "dense"},
		{"astrea", "Astrea"},
	} {
		srv, err := New(Config{Distances: []int{3}, Decoder: tc.decoder, Envs: map[int]*montecarlo.Env{3: env}})
		if err != nil {
			t.Fatalf("decoder %q: %v", tc.decoder, err)
		}
		if got := srv.Snapshot().Engines["3"]; got != tc.engine {
			t.Fatalf("decoder %q: engine attributed as %q, want %q", tc.decoder, got, tc.engine)
		}
		srv.Close()
	}
}
