package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/decodegraph"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/stream"
)

// rotationDeadline keeps deadline misses out of the rotation tests, whose
// every answer is checked against a local run of the same tables.
const rotationDeadline = uint64(10 * time.Second)

// TestRotateUnderLoad is the hot-swap acceptance test: a daemon under
// concurrent decode traffic rotates to a recalibrated artifact mid-load,
// and not one request may be dropped or mis-answered. Every response
// carries the digest of the generation that produced it and is verified
// against that exact generation's tables run locally; a streaming session
// opened before the swap finishes bit-identical to a local pipeline on the
// old tables; a connection that offered no features follows the swap like
// every other; and once the last reference drains the old generation
// retires from the advertised fingerprint set.
func TestRotateUnderLoad(t *testing.T) {
	leakCheck(t)
	env1 := testEnv(t, 3)
	env2, err := montecarlo.SharedEnv(3, 3, 2e-3) // recalibration: same shape, new rates
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Decoder:   "astrea",
		Envs:      map[int]*montecarlo.Env{3: env1},
	})

	factory, err := FactoryFor("astrea")
	if err != nil {
		t.Fatal(err)
	}
	dec1, err := factory(env1)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := factory(env2)
	if err != nil {
		t.Fatal(err)
	}
	fp1 := uint64(decodegraph.FingerprintOf(env1.Model, env1.GWT))
	fp2 := uint64(decodegraph.FingerprintOf(env2.Model, env2.GWT))
	if fp1 == fp2 {
		t.Fatal("the two operating points share a fingerprint; the test cannot tell generations apart")
	}
	art2, err := env2.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	art2.Meta.Generation = 1

	// Pre-compute every request's expected mask under BOTH generations:
	// whichever side of the swap answers, the response is attributable via
	// its carried fingerprint and checkable against exact tables.
	const workers = 4
	const perWorker = 120
	type shot struct {
		s    bitvec.Vec
		want map[uint64]uint64
	}
	rng := prng.New(0x407A7E)
	smp := dem.NewSampler(env1.Model)
	buf := bitvec.New(env1.Model.NumDetectors)
	all := make([][]shot, workers)
	for w := range all {
		all[w] = make([]shot, perWorker)
		for i := range all[w] {
			smp.Sample(rng, buf)
			s := buf.Clone()
			all[w][i] = shot{s: s, want: map[uint64]uint64{
				fp1: dec1.Decode(s).ObsPrediction,
				fp2: dec2.Decode(s).ObsPrediction,
			}}
		}
	}

	// A connection that offered no features, opened and used before the
	// swap: every answer names the generation that produced it.
	plain, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	pin := all[0][0]
	resp, err := plain.Decode(900000, rotationDeadline, pin.s)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint != fp1 || resp.ObsMask != pin.want[fp1] {
		t.Fatalf("featureless pre-rotation answer %#x from %016x, want %#x from %016x",
			resp.ObsMask, resp.Fingerprint, pin.want[fp1], fp1)
	}

	// A streaming session opened before the swap; its first half is on the
	// wire before any rotation, the rest follows after.
	streamConn, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		Features:    FeatureStream,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := sampleStreamRows(env1, 0x57E4, 40)
	st, err := streamConn.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	half := len(rows) / 2
	if err := st.SendRounds(rows[:half]); err != nil {
		t.Fatal(err)
	}

	// Load workers; worker 0 triggers the swap at its halfway mark.
	var once sync.Once
	var rotErr error
	rotated := make(chan struct{})
	rotate := func() {
		once.Do(func() {
			_, rotErr = srv.Rotate(Rotation{Artifact: art2})
			close(rotated)
		})
	}
	var sawOld, sawNew atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
				CallTimeout: 30 * time.Second,
			})
			if err != nil {
				errs <- fmt.Errorf("worker %d dial: %w", w, err)
				return
			}
			defer c.Close()
			for i, sh := range all[w] {
				if w == 0 && i == perWorker/2 {
					rotate()
				}
				resp, err := c.Decode(uint64(w*perWorker+i), rotationDeadline, sh.s)
				if err != nil {
					errs <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
				if resp.Rejected || resp.Err != "" {
					errs <- fmt.Errorf("worker %d request %d dropped across the swap: rejected=%v err=%q", w, i, resp.Rejected, resp.Err)
					return
				}
				want, ok := sh.want[resp.Fingerprint]
				if !ok {
					errs <- fmt.Errorf("worker %d request %d answered from unknown generation %016x", w, i, resp.Fingerprint)
					return
				}
				if resp.ObsMask != want {
					errs <- fmt.Errorf("worker %d request %d mis-answered: generation %016x returned %#x, its tables say %#x",
						w, i, resp.Fingerprint, resp.ObsMask, want)
					return
				}
				if resp.Fingerprint == fp1 {
					sawOld.Add(1)
				} else {
					sawNew.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	<-rotated
	if rotErr != nil {
		t.Fatalf("rotate: %v", rotErr)
	}
	if sawOld.Load() == 0 || sawNew.Load() == 0 {
		t.Fatalf("load did not straddle the swap: %d old-generation answers, %d new", sawOld.Load(), sawNew.Load())
	}

	// Mid-drain, a fresh handshake advertises both generations, newest
	// first (the open stream still holds the old one live).
	probe, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if set := probe.FingerprintSet(); len(set) != 2 || set[0] != fp2 || set[1] != fp1 {
		t.Fatalf("mid-drain fingerprint set %016x, want [%016x %016x]", set, fp2, fp1)
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	// The featureless connection opened before the swap now answers from
	// the new generation, and says so.
	resp, err = plain.Decode(900001, rotationDeadline, pin.s)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint != fp2 || resp.ObsMask != pin.want[fp2] {
		t.Fatalf("featureless post-rotation answer %#x from %016x, want %#x from the new generation %016x",
			resp.ObsMask, resp.Fingerprint, pin.want[fp2], fp2)
	}

	// The old-generation stream finishes across the swap, bit-identical to
	// a local pipeline over the OLD tables with the server-resolved
	// parameters.
	if err := st.SendRounds(rows[half:]); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	var commits []StreamCorrections
	for {
		ev, err := st.Recv()
		if err != nil {
			t.Fatalf("stream died across the swap after %d commits: %v", len(commits), err)
		}
		if ev.Closed {
			break
		}
		commits = append(commits, ev.Commit)
	}
	if err := checkCommitPartition(commits, uint64(len(rows))); err != nil {
		t.Fatal(err)
	}
	ack := st.Params()
	local, _, err := stream.DecodeClosed(stream.Config{
		Env:          env1,
		Decoder:      "astrea",
		WindowRounds: int(ack.WindowRounds),
		GapRounds:    int(ack.GapRounds),
		PadRounds:    int(ack.PadRounds),
		RowBudgetNs:  float64(ack.RowBudgetNs),
		MaxInflight:  int(ack.MaxInflight),
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != len(commits) {
		t.Fatalf("wire committed %d windows across the swap, local old-generation pipeline %d", len(commits), len(local))
	}
	for i, cm := range commits {
		want := local[i]
		if cm.FirstRow != want.FirstRow || int(cm.RowCount) != want.RowCount || cm.ObsMask != want.ObsMask {
			t.Fatalf("commit %d diverged from the pinned generation: wire {row %d n %d obs %#x} != local {row %d n %d obs %#x}",
				i, cm.FirstRow, cm.RowCount, cm.ObsMask, want.FirstRow, want.RowCount, want.ObsMask)
		}
		if wantMilli := uint64(want.Weight*1000 + 0.5); cm.WeightMilli != wantMilli {
			t.Fatalf("commit %d weight %d milli diverged from the pinned generation's %d", i, cm.WeightMilli, wantMilli)
		}
	}

	// Drop the last reference; the superseded generation must retire and
	// leave the advertised set.
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if err := streamConn.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := srv.Snapshot()
		gs, ok := snap.Generations["3"]
		if ok && snap.Rotations == 1 && snap.GenerationsRetired == 1 && len(gs.LiveFingerprints) == 1 {
			if gs.Generation != 1 {
				t.Fatalf("current generation ordinal %d, want 1", gs.Generation)
			}
			if want := decodegraph.Fingerprint(fp2).String(); gs.Fingerprint != want || gs.LiveFingerprints[0] != want {
				t.Fatalf("post-drain generation state %+v, want sole fingerprint %s", gs, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old generation never retired: rotations=%d retired=%d live=%v",
				snap.Rotations, snap.GenerationsRetired, gs.LiveFingerprints)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetiredGenerationReleased is the rotation-leak regression: once a
// generation that served a streaming session is rotated away and drains,
// nothing in the daemon or the stream layer may keep its environment alive.
func TestRetiredGenerationReleased(t *testing.T) {
	leakCheck(t)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Decoder:   "astrea",
		Envs:      map[int]*montecarlo.Env{3: testEnv(t, 3)},
	})
	rotateTo := func(p float64, gen uint64) {
		t.Helper()
		env, err := montecarlo.SharedEnv(3, 3, p)
		if err != nil {
			t.Fatal(err)
		}
		art, err := env.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		art.Meta.Generation = gen
		if _, err := srv.Rotate(Rotation{Artifact: art}); err != nil {
			t.Fatal(err)
		}
	}

	rotateTo(2e-3, 1)
	released := make(chan struct{})
	runtime.SetFinalizer(srv.pools[3].cur.Load().env, func(*montecarlo.Env) { close(released) })

	c, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		Features:    FeatureStream,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendRounds(sampleStreamRows(testEnv(t, 3), 0x6C3A, 40)); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Closed {
			break
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rotateTo(3e-3, 2)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().GenerationsRetired < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("generation 1 never retired: retired=%d", srv.Snapshot().GenerationsRetired)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the retired generation's environment was never released")
}

// TestRotateRefusesShapeChange: a rotation may recalibrate (new error
// rates, new weights) but never change the operating point's shape —
// detector count, rounds or basis — because open codecs and streams
// depend on it. And re-serving the identical fingerprint is refused as a
// no-op.
func TestRotateRefusesShapeChange(t *testing.T) {
	leakCheck(t)
	env1 := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Decoder:   "astrea",
		Envs:      map[int]*montecarlo.Env{3: env1},
	})

	// Same distance, different rounds: the syndrome geometry changes.
	envShape, err := montecarlo.SharedEnv(3, 2, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	artShape, err := envShape.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	artShape.Meta.Generation = 1
	if _, err := srv.Rotate(Rotation{Artifact: artShape}); err == nil {
		t.Fatal("rotation accepted a changed operating-point shape")
	}

	// The identical artifact: same fingerprint, nothing to swap.
	same, err := env1.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Rotate(Rotation{Artifact: same}); err == nil {
		t.Fatal("rotation accepted the fingerprint already being served")
	}

	// An unserved distance.
	env5, err := montecarlo.SharedEnv(5, 5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	art5, err := env5.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Rotate(Rotation{Artifact: art5}); err == nil {
		t.Fatal("rotation accepted a distance the daemon does not serve")
	}
}
