package cluster

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/dem"
	"astrea/internal/faultinject"
	"astrea/internal/leakcheck"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/server"
)

// bigDeadline keeps deadline misses out of tests that exercise routing, not
// real-time behaviour.
const bigDeadline = uint64(10 * time.Second)

func leakCheck(t *testing.T) {
	t.Helper()
	leakcheck.Check(t)
}

// testEnv shares one environment per error rate across the package's
// tests (all at distance 3) via the process-wide montecarlo cache; Env is
// immutable and safe to share.
func testEnv(t *testing.T, p float64) *montecarlo.Env {
	t.Helper()
	env, err := montecarlo.SharedEnv(3, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// startReplica launches one astread daemon over env on a loopback
// listener, torn down with the test.
func startReplica(t *testing.T, env *montecarlo.Env) (*server.Server, string) {
	t.Helper()
	srv, ln := newReplicaServer(t, env)
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// startValvedReplica is startReplica behind a faultinject.Valve, so tests
// can freeze the replica's traffic without killing it.
func startValvedReplica(t *testing.T, env *montecarlo.Env) (*server.Server, *faultinject.Valve, string) {
	t.Helper()
	srv, ln := newReplicaServer(t, env)
	v := faultinject.NewValve()
	go srv.Serve(v.WrapListener(ln))
	// Teardown while stalled would wedge the server's connection
	// goroutines in the valve; reopening first keeps Close prompt.
	t.Cleanup(v.Resume)
	return srv, v, ln.Addr().String()
}

func newReplicaServer(t *testing.T, env *montecarlo.Env) (*server.Server, net.Listener) {
	t.Helper()
	srv, err := server.New(server.Config{
		Distances: []int{3},
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ln
}

// sampleSet draws n syndromes from env's DEM and decodes them locally with
// the server's default decoder, returning the expected observable masks.
func sampleSet(t *testing.T, env *montecarlo.Env, n int, seed uint64) ([]bitvec.Vec, []uint64) {
	t.Helper()
	factory, err := server.FactoryFor("astrea")
	if err != nil {
		t.Fatal(err)
	}
	local, err := factory(env)
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.New(seed)
	smp := dem.NewSampler(env.Model)
	syndromes := make([]bitvec.Vec, n)
	expected := make([]uint64, n)
	buf := bitvec.New(env.Model.NumDetectors)
	for i := 0; i < n; i++ {
		smp.Sample(rng, buf)
		syndromes[i] = buf.Clone()
		expected[i] = local.Decode(buf).ObsPrediction
	}
	return syndromes, expected
}

// deadAddr reserves a loopback port and releases it, yielding an address
// that refuses connections (until re-listened).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startRejectingReplica completes the handshake (advertising fp) and
// answers every decode request with a backpressure rejection.
func startRejectingReplica(t *testing.T, ndet int, fp uint64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(nc net.Conn) {
				defer wg.Done()
				defer nc.Close()
				ft, payload, err := server.ReadFrame(nc, 0)
				if err != nil || ft != server.FrameHello {
					return
				}
				h, err := server.ParseHello(payload)
				if err != nil {
					return
				}
				ack := server.HelloAck{
					Version:      server.ProtocolVersion,
					Status:       server.StatusOK,
					NumDetectors: uint32(ndet),
					Codec:        h.Codec,
					QueueDepth:   64,
					Fingerprint:  fp,
				}
				if server.WriteFrame(nc, server.FrameHelloAck, ack.AppendTo(nil)) != nil {
					return
				}
				for {
					ft, payload, err := server.ReadFrame(nc, 0)
					if err != nil || ft != server.FrameDecode {
						return
					}
					req, err := server.ParseDecodeRequest(payload)
					if err != nil {
						return
					}
					rej := server.RejectFrame{Seq: req.Seq, RetryAfterNs: uint64(time.Millisecond)}
					if server.WriteFrame(nc, server.FrameReject, rej.AppendTo(nil)) != nil {
						return
					}
				}
			}(nc)
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String()
}

// TestFleetFailoverDeadReplica: a fleet spanning one dead and one live
// endpoint must answer every request via failover, with zero corrupted
// corrections.
func TestFleetFailoverDeadReplica(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 1e-3)
	_, live := startReplica(t, env)
	dead := deadAddr(t)
	rep, err := RunLoad(LoadConfig{
		LoadConfig:     server.LoadConfig{Distance: 3, Shots: 60, DeadlineNs: bigDeadline, Seed: 1, Verify: true},
		Addrs:          []string{dead, live},
		Concurrency:    3,
		Failover:       true,
		CallTimeout:    2 * time.Second,
		HealthInterval: 30 * time.Millisecond,
		env:            env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != rep.Offered || rep.Failed != 0 || rep.Rejected != 0 || rep.Errored != 0 {
		t.Fatalf("not every request was answered:\n%s", rep.Summary())
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d corrupted corrections:\n%s", rep.Mismatches, rep.Summary())
	}
	if rep.Replicas[0].Failures == 0 {
		t.Errorf("dead replica recorded no failures:\n%s", rep.Summary())
	}
	if got := rep.Replicas[1].Successes; got != int64(rep.Offered) {
		t.Errorf("live replica served %d of %d requests:\n%s", got, rep.Offered, rep.Summary())
	}
}

// TestBreakerEjectsAndRecovers: consecutive failures must open the
// breaker (shedding without dialing), and once the endpoint returns a
// half-open trial must close it again.
func TestBreakerEjectsAndRecovers(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 1e-3)
	addr := deadAddr(t)
	syndromes, expected := sampleSet(t, env, 1, 3)
	fleet, err := New(Config{
		Addrs:          []string{addr},
		Distance:       3,
		FailThreshold:  2,
		OpenTimeout:    50 * time.Millisecond,
		HealthInterval: -1, // drive recovery from Decode, not the prober
		MaxAttempts:    1,
		Client:         server.ClientOptions{HandshakeTimeout: 500 * time.Millisecond, CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for i := 0; i < 2; i++ {
		if _, err := fleet.Decode(uint64(i), bigDeadline, syndromes[0]); err == nil {
			t.Fatal("decode against a dead endpoint succeeded")
		}
	}
	if st := fleet.Stats()[0]; st.State != "open" {
		t.Fatalf("breaker %s after %d consecutive failures, want open", st.State, 2)
	}
	if _, err := fleet.Decode(9, bigDeadline, syndromes[0]); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("open breaker admitted a request (err = %v)", err)
	}
	// Resurrect the endpoint on the same port and wait out OpenTimeout;
	// the next request is the half-open trial and must close the breaker.
	srv, err := server.New(server.Config{Distances: []int{3}, Envs: map[int]*montecarlo.Env{3: env}})
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	for i := 0; ; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("re-binding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	time.Sleep(80 * time.Millisecond)
	resp, err := fleet.Decode(10, bigDeadline, syndromes[0])
	if err != nil {
		t.Fatalf("half-open trial failed: %v", err)
	}
	if resp.ObsMask != expected[0] {
		t.Fatalf("trial answered mask %d, want %d", resp.ObsMask, expected[0])
	}
	if st := fleet.Stats()[0]; st.State != "closed" {
		t.Fatalf("breaker %s after successful trial, want closed", st.State)
	}
}

// TestFleetRejectionFailover: a backpressure rejection must fail over to
// the next replica instead of surfacing, as long as one replica accepts.
func TestFleetRejectionFailover(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 1e-3)
	_, live := startReplica(t, env)
	fp := uint64(decodegraph.FingerprintOf(env.Model, env.GWT))
	rejecting := startRejectingReplica(t, env.Model.NumDetectors, fp)
	syndromes, expected := sampleSet(t, env, 8, 5)
	fleet, err := New(Config{
		Addrs:          []string{rejecting, live},
		Distance:       3,
		MaxAttempts:    2,
		HealthInterval: -1,
		Client:         server.ClientOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for i, s := range syndromes {
		resp, err := fleet.Decode(uint64(i), bigDeadline, s)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if resp.Rejected {
			t.Fatalf("decode %d surfaced a rejection despite a willing replica", i)
		}
		if resp.ObsMask != expected[i] {
			t.Fatalf("decode %d answered mask %d, want %d", i, resp.ObsMask, expected[i])
		}
	}
	st := fleet.Stats()
	if st[0].Rejections == 0 {
		t.Errorf("rejecting replica recorded no rejections: %+v", st[0])
	}
	if st[1].Successes != int64(len(syndromes)) {
		t.Errorf("live replica served %d of %d requests", st[1].Successes, len(syndromes))
	}
}

// TestFleetHedging: with one replica frozen mid-stream, hedged requests
// must still answer promptly (and correctly) via the other replica.
func TestFleetHedging(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 1e-3)
	_, fast := startReplica(t, env)
	_, valve, slow := startValvedReplica(t, env)
	syndromes, expected := sampleSet(t, env, 10, 7)
	fleet, err := New(Config{
		Addrs:          []string{fast, slow},
		Distance:       3,
		MaxAttempts:    1, // isolate hedging from failover
		Hedge:          true,
		HedgeAfter:     3 * time.Millisecond,
		HealthInterval: -1,
		Client:         server.ClientOptions{CallTimeout: 3 * time.Second, HandshakeTimeout: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	// Warm both replicas so each holds a parked connection, then freeze one.
	for i := 0; i < 4; i++ {
		if _, err := fleet.Decode(uint64(i), bigDeadline, syndromes[i]); err != nil {
			t.Fatalf("warm-up decode %d: %v", i, err)
		}
	}
	valve.Stall()
	for i := 4; i < 10; i++ {
		resp, err := fleet.Decode(uint64(i), bigDeadline, syndromes[i])
		if err != nil {
			t.Fatalf("hedged decode %d: %v", i, err)
		}
		if resp.ObsMask != expected[i] {
			t.Fatalf("hedged decode %d answered mask %d, want %d", i, resp.ObsMask, expected[i])
		}
	}
	valve.Resume()
	st := fleet.Stats()
	if st[0].Hedges+st[1].Hedges == 0 {
		t.Errorf("no hedge was launched against a frozen replica: %+v", st)
	}
}

// TestFingerprintGuardQuarantines: a replica whose advertised
// decoding-configuration digest disagrees with the fleet's pin must be
// permanently quarantined at handshake time, and every request must still
// be answered — correctly — by the conforming replica.
func TestFingerprintGuardQuarantines(t *testing.T) {
	leakCheck(t)
	envGood := testEnv(t, 1e-3)
	envBad := testEnv(t, 2e-3) // different GWT ⇒ different fingerprint
	_, good := startReplica(t, envGood)
	_, bad := startReplica(t, envBad)
	want := decodegraph.FingerprintOf(envGood.Model, envGood.GWT)
	syndromes, expected := sampleSet(t, envGood, 6, 11)
	fleet, err := New(Config{
		Addrs:               []string{bad, good},
		Distance:            3,
		MaxAttempts:         2,
		HealthInterval:      -1,
		ExpectedFingerprint: want,
		Client:              server.ClientOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for i, s := range syndromes {
		resp, err := fleet.Decode(uint64(i), bigDeadline, s)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if resp.ObsMask != expected[i] {
			t.Fatalf("decode %d answered mask %d, want %d", i, resp.ObsMask, expected[i])
		}
	}
	st := fleet.Stats()
	if st[0].State != "quarantined" {
		t.Fatalf("mismatched replica is %q, want quarantined: %+v", st[0].State, st[0])
	}
	if !strings.Contains(st[0].QuarantineReason, "fingerprint") {
		t.Errorf("quarantine reason %q does not name the fingerprint", st[0].QuarantineReason)
	}
	if st[1].Successes != int64(len(syndromes)) {
		t.Errorf("conforming replica served %d of %d requests", st[1].Successes, len(syndromes))
	}
	if fp, ok := fleet.Fingerprint(); !ok || fp != want {
		t.Errorf("fleet fingerprint = %v, %v; want %v, true", fp, ok, want)
	}
}

// TestFleetAdoptsFirstFingerprint: with no pin configured the fleet adopts
// the first handshaken replica's digest.
func TestFleetAdoptsFirstFingerprint(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 1e-3)
	_, addr := startReplica(t, env)
	syndromes, _ := sampleSet(t, env, 1, 13)
	fleet, err := New(Config{
		Addrs:          []string{addr},
		Distance:       3,
		HealthInterval: -1,
		Client:         server.ClientOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if _, ok := fleet.Fingerprint(); ok {
		t.Fatal("fleet reports a fingerprint before any handshake")
	}
	if _, err := fleet.Decode(0, bigDeadline, syndromes[0]); err != nil {
		t.Fatal(err)
	}
	want := decodegraph.FingerprintOf(env.Model, env.GWT)
	if fp, ok := fleet.Fingerprint(); !ok || fp != want {
		t.Fatalf("fleet fingerprint = %v, %v; want %v, true", fp, ok, want)
	}
}
