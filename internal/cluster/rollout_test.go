package cluster

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/server"
)

// rolloutShot is one syndrome with its expected observable mask under
// every generation a rollout can answer from, keyed by fingerprint: the
// response's carried digest selects which tables to verify against.
type rolloutShot struct {
	s    bitvec.Vec
	want map[uint64]uint64
}

// rolloutShots samples n syndromes from envA and decodes each locally
// under every given environment, so fleet answers stay verifiable across
// a generation swap.
func rolloutShots(t *testing.T, n int, seed uint64, envs ...*montecarlo.Env) []rolloutShot {
	t.Helper()
	factory, err := server.FactoryFor("astrea")
	if err != nil {
		t.Fatal(err)
	}
	decs := make(map[uint64]decoder.Decoder, len(envs))
	for _, env := range envs {
		dec, err := factory(env)
		if err != nil {
			t.Fatal(err)
		}
		decs[uint64(decodegraph.FingerprintOf(env.Model, env.GWT))] = dec
	}
	rng := prng.New(seed)
	smp := dem.NewSampler(envs[0].Model)
	buf := bitvec.New(envs[0].Model.NumDetectors)
	shots := make([]rolloutShot, n)
	for i := range shots {
		smp.Sample(rng, buf)
		s := buf.Clone()
		want := make(map[uint64]uint64, len(decs))
		for fp, dec := range decs {
			want[fp] = dec.Decode(s).ObsPrediction
		}
		shots[i] = rolloutShot{s: s, want: want}
	}
	return shots
}

// envFP is the decoding-configuration digest of an environment.
func envFP(env *montecarlo.Env) decodegraph.Fingerprint {
	return decodegraph.FingerprintOf(env.Model, env.GWT)
}

// traffic drives continuous verified decode load against a fleet from
// background workers until halted, attributing every answer to a
// generation via its carried fingerprint.
type traffic struct {
	stop                chan struct{}
	once                sync.Once
	wg                  sync.WaitGroup
	answered, dropped   atomic.Int64
	mismatched, unverif atomic.Int64
}

func driveTraffic(fleet *Fleet, shots []rolloutShot, workers int, deadlineNs uint64) *traffic {
	tr := &traffic{stop: make(chan struct{})}
	var seq atomic.Uint64
	for w := 0; w < workers; w++ {
		tr.wg.Add(1)
		go func() {
			defer tr.wg.Done()
			for {
				select {
				case <-tr.stop:
					return
				default:
				}
				n := seq.Add(1)
				sh := shots[int(n)%len(shots)]
				resp, err := fleet.Decode(n, deadlineNs, sh.s)
				if err != nil || resp.Rejected || resp.Err != "" {
					tr.dropped.Add(1)
					continue
				}
				tr.answered.Add(1)
				want, ok := sh.want[resp.Fingerprint]
				switch {
				case !ok:
					tr.unverif.Add(1)
				case resp.ObsMask != want:
					tr.mismatched.Add(1)
				}
			}
		}()
	}
	return tr
}

func (tr *traffic) halt() {
	tr.once.Do(func() { close(tr.stop) })
	tr.wg.Wait()
}

// check asserts the zero-loss invariant: every request answered, every
// answer attributed and correct for its generation.
func (tr *traffic) check(t *testing.T) {
	t.Helper()
	if tr.answered.Load() == 0 {
		t.Fatal("traffic driver answered nothing")
	}
	if d := tr.dropped.Load(); d != 0 {
		t.Fatalf("%d requests dropped across the rollout (of %d answered)", d, tr.answered.Load())
	}
	if m := tr.mismatched.Load(); m != 0 {
		t.Fatalf("%d answers disagree with their generation's tables", m)
	}
	if u := tr.unverif.Load(); u != 0 {
		t.Fatalf("%d answers carried no attributable generation digest", u)
	}
}

// TestTransitionWindowClassifiesMismatches pins the satellite contract of
// the transition window: while a transition is open, a replica advertising
// a digest outside the {next, previous} window is shed transiently (state
// "transition", healed by the prober once the replica rotates into the
// window) — not permanently quarantined — while after the window closes a
// divergent replica is quarantined exactly as before.
func TestTransitionWindowClassifiesMismatches(t *testing.T) {
	leakCheck(t)
	envOld := testEnv(t, 1e-3)
	envNew := testEnv(t, 2e-3)
	envStray := testEnv(t, 3e-3) // outside any window
	fpOld, fpNew := envFP(envOld), envFP(envNew)

	_, old := startReplica(t, envOld)
	straySrv, stray := startReplica(t, envStray)
	shots := rolloutShots(t, 16, 21, envOld, envNew)

	fleet, err := New(Config{
		Addrs:               []string{old, stray},
		Distance:            3,
		MaxAttempts:         2,
		HealthInterval:      15 * time.Millisecond,
		ExpectedFingerprint: fpOld,
		Client:              server.ClientOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if err := fleet.BeginTransition(fpNew); err != nil {
		t.Fatal(err)
	}
	// Both window members are primaries somewhere; the stray replica's
	// digest is in neither and must be shed transiently on first contact.
	for i := range shots {
		resp, err := fleet.Decode(uint64(i), bigDeadline, shots[i].s)
		if err != nil {
			t.Fatalf("decode %d during transition: %v", i, err)
		}
		if want := shots[i].want[uint64(fpOld)]; resp.ObsMask != want {
			t.Fatalf("decode %d answered %#x, want %#x", i, resp.ObsMask, want)
		}
	}
	st := fleet.Stats()
	if st[1].State != "transition" {
		t.Fatalf("stray replica is %q during the window, want transition: %+v", st[1].State, st[1])
	}
	if !strings.Contains(st[1].TransitionReason, "window") || st[1].QuarantineReason != "" {
		t.Fatalf("stray replica reasons misclassified: %+v", st[1])
	}

	// Rotating the stray replica into the window must heal it via the
	// prober, with no fleet restart.
	artNew, err := envNew.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	artNew.Meta.Generation = 1
	if _, err := straySrv.Rotate(server.Rotation{Artifact: artNew}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fleet.Stats()[1].State != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("rotated replica never healed: %+v", fleet.Stats()[1])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Window closes on the new generation: the healed replica keeps
	// serving (from envNew's tables), while the never-upgraded one is now
	// permanently quarantined on its next contact.
	fleet.CompleteTransition()
	deadline = time.Now().Add(5 * time.Second)
	for i := len(shots); ; i++ {
		resp, err := fleet.Decode(uint64(i), bigDeadline, shots[i%len(shots)].s)
		if err == nil && resp.Fingerprint == uint64(fpNew) {
			if want := shots[i%len(shots)].want[uint64(fpNew)]; resp.ObsMask != want {
				t.Fatalf("post-transition decode answered %#x, want %#x", resp.ObsMask, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no post-transition answer from the new generation (err=%v)", err)
		}
	}
	// The permanent quarantine lands on the prober's next fresh handshake
	// (a per-result mismatch alone is transient by design), so poll for it.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st = fleet.Stats()
		if st[0].State == "quarantined" && st[0].QuarantineReason != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale replica after the window closed: %+v, want permanent quarantine", st[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fp, ok := fleet.Fingerprint(); !ok || fp != fpNew {
		t.Fatalf("fleet fingerprint %v, %v after completion; want %v", fp, ok, fpNew)
	}
	if fleet.InTransition() {
		t.Fatal("transition still open after CompleteTransition")
	}
}

// slowedDecoder delays every decode — the chaos hook a rollback test
// installs as the "regressed" generation.
type slowedDecoder struct {
	inner decoder.Decoder
	delay time.Duration
}

func (s slowedDecoder) Name() string { return s.inner.Name() + " (slowed)" }
func (s slowedDecoder) Decode(v bitvec.Vec) decoder.Result {
	time.Sleep(s.delay)
	return s.inner.Decode(v)
}

// rolloutFixture stands up a 3-replica fleet over envOld with verified
// background traffic flowing, ready for a staged rollout to envNew.
type rolloutFixture struct {
	servers map[string]*server.Server
	fleet   *Fleet
	tr      *traffic
	fpOld   decodegraph.Fingerprint
	fpNew   decodegraph.Fingerprint
}

// newRolloutFixture stands the fleet up: a slow generation shows up as
// deadline misses with bit-verifiable answers.
func newRolloutFixture(t *testing.T, envOld, envNew *montecarlo.Env, deadlineNs uint64) *rolloutFixture {
	t.Helper()
	fx := &rolloutFixture{
		servers: make(map[string]*server.Server),
		fpOld:   envFP(envOld),
		fpNew:   envFP(envNew),
	}
	addrs := make([]string, 3)
	for i := range addrs {
		srv, err := server.New(server.Config{
			Distances: []int{3},
			Envs:      map[int]*montecarlo.Env{3: envOld},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		go srv.Serve(ln)
		fx.servers[ln.Addr().String()] = srv
		addrs[i] = ln.Addr().String()
	}
	fleet, err := New(Config{
		Addrs:               addrs,
		Distance:            3,
		MaxAttempts:         3,
		HealthInterval:      15 * time.Millisecond,
		ExpectedFingerprint: fx.fpOld,
		Client:              server.ClientOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	fx.fleet = fleet
	fx.tr = driveTraffic(fleet, rolloutShots(t, 64, 97, envOld, envNew), 4, deadlineNs)
	t.Cleanup(fx.tr.halt)
	return fx
}

// TestStagedRolloutCompletes is the rollout soak: three replicas upgraded
// one at a time under continuous verified traffic; the rollout must
// complete, the fleet must converge on the new generation, and not one
// request may be dropped or mis-answered anywhere in the sequence.
func TestStagedRolloutCompletes(t *testing.T) {
	leakCheck(t)
	envOld := testEnv(t, 1e-3)
	envNew := testEnv(t, 2e-3)
	fx := newRolloutFixture(t, envOld, envNew, bigDeadline)
	artNew, err := envNew.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	artNew.Meta.Generation = 1

	rep, err := fx.fleet.StageRollout(RolloutConfig{
		Next: fx.fpNew,
		Apply: func(addr string) error {
			_, err := fx.servers[addr].Rotate(server.Rotation{Artifact: artNew})
			return err
		},
		Settle:         20 * time.Millisecond,
		ConfirmTimeout: 10 * time.Second,
		Poll:           5 * time.Millisecond,
		MinSamples:     30,
		Tolerance:      0.2,
	})
	if err != nil {
		t.Fatalf("rollout failed: %v (report %+v)", err, rep)
	}
	if !rep.Completed || len(rep.Steps) != 3 {
		t.Fatalf("rollout report %+v, want 3 completed steps", rep)
	}
	for _, step := range rep.Steps {
		if step.RolledBack {
			t.Fatalf("step %+v rolled back in a clean rollout", step)
		}
		if step.Baseline.settled() < 30 || step.Post.settled() < 30 {
			t.Fatalf("step %s gated on too few samples: %+v", step.Addr, step)
		}
	}
	if fp, ok := fx.fleet.Fingerprint(); !ok || fp != fx.fpNew {
		t.Fatalf("fleet fingerprint %v, %v; want %v", fp, ok, fx.fpNew)
	}
	if fx.fleet.InTransition() {
		t.Fatal("transition still open after a completed rollout")
	}
	fx.tr.halt()
	fx.tr.check(t)
	for _, st := range fx.fleet.Stats() {
		if st.State != "closed" {
			t.Fatalf("replica %s ended %q, want closed: %+v", st.Addr, st.State, st)
		}
	}
}

// TestStagedRolloutRollback: the first replica's new generation is
// deliberately slow (every answer overruns its deadline), so the
// regression gate must fire on the first step, the replica must be
// reverted to the previous generation, and the fleet must converge back
// on it — all without dropping or mis-answering the concurrent traffic.
func TestStagedRolloutRollback(t *testing.T) {
	leakCheck(t)
	envOld := testEnv(t, 1e-3)
	envNew := testEnv(t, 2e-3)
	// A 1ms deadline: generous for the real decoder at distance 3, far too
	// tight for the slowed chaos generation — its every answer is a miss.
	fx := newRolloutFixture(t, envOld, envNew, uint64(time.Millisecond))
	artNew, err := envNew.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	artNew.Meta.Generation = 1
	artOld, err := envOld.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	artOld.Meta.Generation = 2 // the revert is itself a forward-stamped rotation

	astrea, err := server.FactoryFor("astrea")
	if err != nil {
		t.Fatal(err)
	}
	// The regressed generation: correct answers, 3ms late — far past the
	// 1ms deadline the traffic driver requests, so every post-rotation
	// answer is a deadline miss.
	slow := func(env *montecarlo.Env) (decoder.Decoder, error) {
		inner, err := astrea(env)
		if err != nil {
			return nil, err
		}
		return slowedDecoder{inner: inner, delay: 3 * time.Millisecond}, nil
	}

	var reverted atomic.Int64
	rep, err := fx.fleet.StageRollout(RolloutConfig{
		Next: fx.fpNew,
		Apply: func(addr string) error {
			_, err := fx.servers[addr].Rotate(server.Rotation{Artifact: artNew, Factory: slow})
			return err
		},
		Revert: func(addr string) error {
			reverted.Add(1)
			_, err := fx.servers[addr].Rotate(server.Rotation{Artifact: artOld})
			return err
		},
		Settle:         20 * time.Millisecond,
		ConfirmTimeout: 10 * time.Second,
		Poll:           5 * time.Millisecond,
		MinSamples:     30,
		Tolerance:      0.2,
	})
	if !errors.Is(err, ErrRolloutRegression) {
		t.Fatalf("rollout returned %v, want ErrRolloutRegression", err)
	}
	if rep.Completed || len(rep.Steps) != 1 {
		t.Fatalf("rollback report %+v, want exactly the one failed step", rep)
	}
	step := rep.Steps[0]
	if !step.RolledBack || !strings.Contains(step.Reason, "deadline-miss") {
		t.Fatalf("step %+v, want a deadline-miss rollback", step)
	}
	if step.Post.DeadlineMisses == 0 {
		t.Fatalf("gate fired with no recorded misses: %+v", step)
	}
	if reverted.Load() != 1 {
		t.Fatalf("revert hook ran %d times, want 1", reverted.Load())
	}
	if fp, ok := fx.fleet.Fingerprint(); !ok || fp != fx.fpOld {
		t.Fatalf("fleet fingerprint %v, %v after rollback; want the previous %v", fp, ok, fx.fpOld)
	}
	if fx.fleet.InTransition() {
		t.Fatal("transition still open after rollback")
	}

	// The fleet keeps serving after the rollback; every replica converges
	// back to health (the reverted one may pass through a transition shed
	// while stragglers drain).
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := 0
		for _, st := range fx.fleet.Stats() {
			if st.State == "closed" {
				healthy++
			}
		}
		if healthy == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged after rollback: %+v", fx.fleet.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	fx.tr.halt()
	fx.tr.check(t)
}

// watchArtifacts mirrors astread's -artifact-watch loop in-process: poll
// the directory, pick the highest generation, rotate when it is strictly
// newer than what the server is serving.
func watchArtifacts(srv *server.Server, dir string, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		time.Sleep(10 * time.Millisecond)
		found, err := filepath.Glob(filepath.Join(dir, "*.astc"))
		if err != nil {
			continue
		}
		var best *artifact.Artifact
		for _, path := range found {
			a, err := artifact.ReadFile(path)
			if err != nil {
				continue
			}
			if best == nil || a.Meta.Generation > best.Meta.Generation {
				best = a
			}
		}
		if best == nil {
			continue
		}
		gs, ok := srv.Snapshot().Generations["3"]
		if !ok || best.Meta.Generation <= gs.Generation || best.Fingerprint.String() == gs.Fingerprint {
			continue
		}
		//lint:allow errwrap a refused rotation here just means the next poll retries
		srv.Rotate(server.Rotation{Artifact: best})
	}
}

// TestRunLoadRotationSoak drives the loadgen rotation chaos mode end to
// end: paced fleet load, a mid-run staged rollout applied purely through
// watch-directory drops (as astrea-loadgen -rotate does against real
// daemons), per-generation verification, and the zero-mismatch gate.
func TestRunLoadRotationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("paced multi-second soak")
	}
	leakCheck(t)
	envOld := testEnv(t, 1e-3)
	envNew := testEnv(t, 2e-3)

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	addrs := make([]string, 3)
	dirs := make([]string, 3)
	for i := range addrs {
		srv, addr := startReplica(t, envOld)
		addrs[i] = addr
		dirs[i] = t.TempDir()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			watchArtifacts(srv, dirs[i], stop)
		}()
		// The watcher must stop before the replica server is torn down
		// (cleanups run last-in first-out).
		t.Cleanup(func() { halt(); wg.Wait() })
	}

	artNew, err := envNew.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	artNew.Meta.Generation = 1
	artPath := filepath.Join(t.TempDir(), artifact.FileName(artNew.Meta))
	if err := artNew.WriteFile(artPath); err != nil {
		t.Fatal(err)
	}

	rep, err := RunLoad(LoadConfig{
		LoadConfig: server.LoadConfig{
			Distance:   3,
			P:          1e-3,
			Shots:      5000,
			RatePerSec: 2000,
			DeadlineNs: bigDeadline,
			Seed:       11,
			Verify:     true,
		},
		Addrs:                addrs,
		Concurrency:          4,
		Failover:             true,
		CallTimeout:          2 * time.Second,
		HealthInterval:       15 * time.Millisecond,
		RotateArtifact:       artPath,
		RotateDirs:           dirs,
		RotateAfterFrac:      0.2,
		RotateConfirmTimeout: 15 * time.Second,
		env:                  envOld,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RotationErr != "" {
		t.Fatalf("rotation failed: %s (report %+v)", rep.RotationErr, rep.Rotation)
	}
	if rep.Rotation == nil || !rep.Rotation.Completed || len(rep.Rotation.Steps) != 3 {
		t.Fatalf("rollout report %+v, want 3 completed steps", rep.Rotation)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d verified mismatches across the rotation", rep.Mismatches)
	}
	if rep.Failed != 0 || rep.Errored != 0 {
		t.Fatalf("dropped traffic across the rotation: %d failed, %d errored", rep.Failed, rep.Errored)
	}
	if rep.Accepted == 0 {
		t.Fatal("nothing answered")
	}
}
