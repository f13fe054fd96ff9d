package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/faultinject"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/stream"
)

// resumeClientOptions is the feature set a resumable streaming client
// offers: checksummed framing makes connection kills surface as clean
// transport errors instead of garbage frames.
var resumeClientOptions = ClientOptions{
	Features:    FeatureStream | FeatureStreamResume | FeatureChecksum,
	CallTimeout: 30 * time.Second,
}

// fastRetry keeps recovery loops fast in tests while still exercising the
// jittered backoff path.
var fastRetry = RetryPolicy{
	MaxAttempts: 10,
	BaseBackoff: 200 * time.Microsecond,
	MaxBackoff:  5 * time.Millisecond,
	Seed:        1,
}

// driveResumingSession pushes a closed round stream through a
// ResumingStream while killing connections on a seeded schedule: sendKills
// fire after the feeder crosses a row threshold, commitKills after the
// drainer absorbs its n-th commit — together they land kills mid-window,
// on seams and after fuse reordering. Returns the observed commits and the
// synthesized summary.
func driveResumingSession(rs *ResumingStream, proxy *faultinject.Proxy, rows []bitvec.Vec, sendKills []int, commitKills []int) ([]StreamCorrections, StreamClosed, error) {
	sendErr := make(chan error, 1)
	go func() {
		ki := 0
		const batch = 16
		for i := 0; i < len(rows); i += batch {
			end := i + batch
			if end > len(rows) {
				end = len(rows)
			}
			if err := rs.SendRounds(rows[i:end]); err != nil {
				sendErr <- err
				return
			}
			for ki < len(sendKills) && end >= sendKills[ki] {
				proxy.KillActive()
				ki++
			}
		}
		sendErr <- rs.CloseSend()
	}()
	var commits []StreamCorrections
	var summary StreamClosed
	cki := 0
	for {
		ev, err := rs.Recv()
		if err != nil {
			<-sendErr
			return commits, summary, fmt.Errorf("resuming stream died after %d commits: %w", len(commits), err)
		}
		if ev.Closed {
			summary = ev.Summary
			break
		}
		commits = append(commits, ev.Commit)
		if cki < len(commitKills) && len(commits) == commitKills[cki] {
			proxy.KillActive()
			cki++
		}
	}
	if err := <-sendErr; err != nil {
		return commits, summary, fmt.Errorf("resuming stream send: %w", err)
	}
	return commits, summary, nil
}

// killSchedule draws k distinct thresholds in (lo, hi) from a seeded
// stream, sorted ascending.
func killSchedule(rng *prng.Source, k, lo, hi int) []int {
	if hi <= lo+1 {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		v := lo + 1 + rng.Intn(hi-lo-1)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// TestStreamResumeBitIdentical is the resume acceptance test: sessions at
// d ∈ {3, 5, 7} through a proxy whose connections are severed on a seeded
// schedule — mid-window, at forced seams (one scenario makes every cut
// forced) and after commits have fused — must produce exactly the commits
// of an uninterrupted run: the same windows, cuts, observable masks and
// weights as the local pipeline at the server-resolved operating point.
func TestStreamResumeBitIdentical(t *testing.T) {
	leakCheck(t)
	type scenario struct {
		name     string
		d        int
		shots    int
		opts     StreamOptions
		sends    int // kills triggered by sent-row thresholds
		commitKs int // kills triggered by commit counts
	}
	cases := []scenario{
		{name: "d3", d: 3, shots: 450, opts: StreamOptions{}, sends: 4, commitKs: 2},
		// GapRounds just under the window cap: a 22-round quiet run almost
		// never fits in a 24-round window, so nearly every cut is forced
		// and kills land on carried seams.
		{name: "d3-forced", d: 3, shots: 140, opts: StreamOptions{WindowRounds: 24, GapRounds: 22}, sends: 3, commitKs: 1},
		{name: "d5", d: 5, shots: 330, opts: StreamOptions{}, sends: 3, commitKs: 2},
		{name: "d7", d: 7, shots: 180, opts: StreamOptions{}, sends: 2, commitKs: 1},
	}
	if testing.Short() {
		for i := range cases {
			cases[i].shots /= 10
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(t, tc.d)
			srv := startServer(t, Config{
				Distances:       []int{tc.d},
				P:               1e-3,
				Decoder:         "astrea",
				WriteTimeout:    10 * time.Second,
				StreamResumeTTL: 30 * time.Second,
				Envs:            map[int]*montecarlo.Env{tc.d: env},
			})
			proxy, err := faultinject.NewProxy(srv.Addr().String(), faultinject.Config{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			rows := sampleStreamRows(env, uint64(0xB17+tc.d), tc.shots)
			rng := prng.New(uint64(0x5EED0 + tc.d))
			sendKills := killSchedule(rng, tc.sends, 16, len(rows))

			rs, err := NewResumingStream(func() (*Client, error) {
				return DialOptions(proxy.Addr(), tc.d, compress.IDSparse, resumeClientOptions)
			}, ResumingStreamOptions{Stream: tc.opts, Retry: fastRetry})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			// Commit-count kill thresholds follow the expected commit density
			// loosely; landing past the last commit just wastes the kill.
			commitKills := killSchedule(rng, tc.commitKs, 1, len(rows)/8+2)

			commits, summary, err := driveResumingSession(rs, proxy, rows, sendKills, commitKills)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCommitPartition(commits, uint64(len(rows))); err != nil {
				t.Fatal(err)
			}
			if rs.Reconnects() == 0 {
				t.Fatal("no reconnects happened; the kill schedule never bit")
			}

			ack := rs.Params()
			local, localStats, err := stream.DecodeClosed(stream.Config{
				Env:          env,
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
				t.Fatalf("interrupted run committed %d windows, uninterrupted %d", len(commits), len(local))
			}
			forced := 0
			for i, cm := range commits {
				want := local[i]
				if cm.FirstRow != want.FirstRow || int(cm.RowCount) != want.RowCount || cm.ObsMask != want.ObsMask {
					t.Fatalf("commit %d: resumed {row %d n %d obs %#x} != uninterrupted {row %d n %d obs %#x}",
						i, cm.FirstRow, cm.RowCount, cm.ObsMask, want.FirstRow, want.RowCount, want.ObsMask)
				}
				if wantMilli := uint64(want.Weight*1000 + 0.5); cm.WeightMilli != wantMilli {
					t.Fatalf("commit %d: weight %d milli, want %d", i, cm.WeightMilli, wantMilli)
				}
				if (cm.Flags&FlagForcedSeam != 0) != want.Forced {
					t.Fatalf("commit %d: forced-seam flag %v, uninterrupted run says %v",
						i, cm.Flags&FlagForcedSeam != 0, want.Forced)
				}
				if cm.Flags&FlagForcedSeam != 0 {
					forced++
				}
			}
			if summary.ObsMask != localStats.ObsMask {
				t.Fatalf("summary obs %#x != uninterrupted stream obs %#x", summary.ObsMask, localStats.ObsMask)
			}
			if summary.TotalRows != uint64(len(rows)) || summary.Windows != uint64(len(commits)) {
				t.Fatalf("summary %+v disagrees with %d rows / %d commits", summary, len(rows), len(commits))
			}
			if tc.opts.GapRounds != 0 && forced < len(commits)/2 {
				t.Fatalf("forced-seam scenario produced only %d forced of %d commits", forced, len(commits))
			}
			t.Logf("%s: %d commits (%d forced), %d reconnects, %d rounds replayed, recoveries %v",
				tc.name, len(commits), forced, rs.Reconnects(), rs.ReplayedRounds(), rs.Recoveries())
		})
	}
}

// TestStreamResumeFailover is the replica-failover acceptance at the
// server-package level: the session starts on replica A (through a kill
// proxy), A's proxy is shut down mid-stream, and the reconnect loop lands
// on replica B — which has never seen the token and refuses the warm
// resume — forcing a cold re-open from the commit watermark with the
// carried seam. The committed stream must still be bit-identical to an
// uninterrupted run.
func TestStreamResumeFailover(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	mkServer := func() *Server {
		return startServer(t, Config{
			Distances:       []int{3},
			P:               1e-3,
			Decoder:         "astrea",
			WriteTimeout:    10 * time.Second,
			StreamResumeTTL: 30 * time.Second,
			Envs:            map[int]*montecarlo.Env{3: env},
		})
	}
	srvA, srvB := mkServer(), mkServer()
	proxyA, err := faultinject.NewProxy(srvA.Addr().String(), faultinject.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer proxyA.Close()

	// The dial target flips to replica B once A's proxy is down.
	addrA := proxyA.Addr()
	failedOver := make(chan struct{})
	dial := func() (*Client, error) {
		addr := addrA
		select {
		case <-failedOver:
			addr = srvB.Addr().String()
		default:
		}
		return DialOptions(addr, 3, compress.IDSparse, resumeClientOptions)
	}

	shots := 160
	if testing.Short() {
		shots = 40
	}
	// Forced seams make the failover carry a non-empty resolved seam into
	// the cold re-open — the hardest replay case.
	rows := sampleStreamRows(env, 0xFA11, shots)
	rs, err := NewResumingStream(dial, ResumingStreamOptions{
		Stream: StreamOptions{WindowRounds: 24, GapRounds: 22},
		Retry:  fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	sendErr := make(chan error, 1)
	go func() {
		const batch = 8
		for i := 0; i < len(rows); i += batch {
			end := i + batch
			if end > len(rows) {
				end = len(rows)
			}
			if err := rs.SendRounds(rows[i:end]); err != nil {
				sendErr <- err
				return
			}
			select {
			case <-failedOver:
			default:
				if i >= len(rows)/2 {
					// Take replica A down for good: future dials go to B,
					// whose resume cache has never seen the token.
					close(failedOver)
					proxyA.Close()
				}
			}
		}
		sendErr <- rs.CloseSend()
	}()
	var commits []StreamCorrections
	for {
		ev, err := rs.Recv()
		if err != nil {
			<-sendErr
			t.Fatalf("failover stream died after %d commits: %v", len(commits), err)
		}
		if ev.Closed {
			break
		}
		commits = append(commits, ev.Commit)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if err := checkCommitPartition(commits, uint64(len(rows))); err != nil {
		t.Fatal(err)
	}
	if rs.Reconnects() == 0 {
		t.Fatal("failover never happened")
	}

	ack := rs.Params()
	local, _, err := stream.DecodeClosed(stream.Config{
		Env:          env,
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
		t.Fatalf("failover run committed %d windows, uninterrupted %d", len(commits), len(local))
	}
	for i, cm := range commits {
		want := local[i]
		if cm.FirstRow != want.FirstRow || int(cm.RowCount) != want.RowCount || cm.ObsMask != want.ObsMask {
			t.Fatalf("commit %d: failover {row %d n %d obs %#x} != uninterrupted {row %d n %d obs %#x}",
				i, cm.FirstRow, cm.RowCount, cm.ObsMask, want.FirstRow, want.RowCount, want.ObsMask)
		}
	}
	// Replica B served the tail: it opened (cold) exactly one session.
	if snap := srvB.Snapshot(); snap.StreamsOpened == 0 {
		t.Fatal("replica B never saw the failed-over session")
	}
	// Replica A counts the park when its handler notices the dead
	// connection, which can trail the client's failover to B.
	deadline := time.Now().Add(5 * time.Second)
	for snap := srvA.Snapshot(); snap.StreamsParked == 0; snap = srvA.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("replica A never parked the dropped session: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamResumeRefusals pins the clean-refusal paths: a resume frame on
// a connection that never negotiated the feature kills the connection
// (protocol violation); an unknown token is refused with
// StatusUnknownSession while the connection stays usable; and a server
// with the resume cache disabled never advertises the feature bit, so
// non-resumable streaming (token 0) still works end to end.
func TestStreamResumeRefusals(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances:       []int{3},
		P:               1e-3,
		StreamResumeTTL: 30 * time.Second,
		Envs:            map[int]*montecarlo.Env{3: env},
	})

	// Resume frame without the feature bit: the connection must die.
	noFeature, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		Features: FeatureStream,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer noFeature.Close()
	if _, _, err := noFeature.ResumeStream(1, 0, 0, StreamOpenAck{}); err == nil || !strings.Contains(err.Error(), "negotiate") {
		t.Fatalf("ResumeStream without the feature bit: %v", err)
	}
	if err := WriteFrame(noFeature.conn, FrameStreamResume, StreamResume{Token: 1}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(noFeature.conn, 0); err == nil {
		t.Fatalf("connection survived an unnegotiated stream-resume (got frame type %d)", ft)
	}

	// Unknown token: refused cleanly, the connection stays in decode mode.
	client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, resumeClientOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, res, err := client.ResumeStream(0xBAD7, 0, 0, StreamOpenAck{})
	if err != nil || st != nil {
		t.Fatalf("unknown-token resume: stream %v, err %v", st, err)
	}
	if res.Status != StatusUnknownSession {
		t.Fatalf("unknown-token resume status %d, want %d", res.Status, StatusUnknownSession)
	}
	rows := sampleStreamRows(env, 0xC1EA2, 10)
	commits, _, _, err := driveStreamSession(client, StreamOptions{}, rows)
	if err != nil {
		t.Fatalf("stream after refused resume: %v", err)
	}
	if err := checkCommitPartition(commits, uint64(len(rows))); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Snapshot(); snap.StreamResumeMisses != 1 {
		t.Fatalf("resume misses %d, want 1", snap.StreamResumeMisses)
	}

	// Resume disabled: the feature bit is never granted, and a client
	// offering it still streams, without a session token.
	off := startServer(t, Config{
		Distances:       []int{3},
		P:               1e-3,
		StreamResumeTTL: -1,
		Envs:            map[int]*montecarlo.Env{3: env},
	})
	plain, err := DialOptions(off.Addr().String(), 3, compress.IDSparse, resumeClientOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Features()&FeatureStreamResume != 0 {
		t.Fatal("resume-disabled server granted FeatureStreamResume")
	}
	st2, err := plain.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.SessionToken() != 0 {
		t.Fatal("non-resumable stream carries a session token")
	}
	if err := st2.CloseSend(); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := st2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Closed {
			break
		}
	}
}

// TestStreamResumeExpiry pins the TTL reaper and the cache gauges: a
// parked session whose client never returns is expired, its pipeline torn
// down, and the cache drains to zero.
func TestStreamResumeExpiry(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances:       []int{3},
		P:               1e-3,
		StreamResumeTTL: 80 * time.Millisecond,
		Envs:            map[int]*montecarlo.Env{3: env},
	})
	client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, resumeClientOptions)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionToken() == 0 || st.ResumeTTL() != 80*time.Millisecond {
		t.Fatalf("resumable stream token %d ttl %v", st.SessionToken(), st.ResumeTTL())
	}
	if err := st.SendRounds(sampleStreamRows(env, 0x77, 2)); err != nil {
		t.Fatal(err)
	}
	client.Close() // abandon: the server parks the session

	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := srv.Snapshot()
		if snap.StreamResumeExpired == 1 && snap.ResumeCacheSessions == 0 {
			if snap.StreamsParked != 1 || snap.StreamsAborted != 1 {
				t.Fatalf("expiry accounting: %+v", snap)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked session never expired: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamResumeEviction pins the cache bounds: parking more sessions
// than StreamResumeMaxSessions evicts the oldest, counted distinctly from
// expiry.
func TestStreamResumeEviction(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances:               []int{3},
		P:                       1e-3,
		StreamResumeTTL:         30 * time.Second,
		StreamResumeMaxSessions: 2,
		Envs:                    map[int]*montecarlo.Env{3: env},
	})
	for i := 0; i < 4; i++ {
		client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, resumeClientOptions)
		if err != nil {
			t.Fatal(err)
		}
		st, err := client.OpenStream(StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SendRounds(sampleStreamRows(env, uint64(0xE1+i), 1)); err != nil {
			t.Fatal(err)
		}
		client.Close()
		// Wait for the park before the next one so eviction order is the
		// park order.
		deadline := time.Now().Add(5 * time.Second)
		for srv.Snapshot().StreamsParked != int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("session %d never parked", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// A park is counted before the eviction it triggers, so the last
	// eviction can trail the park count the loop waited for.
	deadline := time.Now().Add(5 * time.Second)
	snap := srv.Snapshot()
	for snap.StreamResumeEvicted != 2 || snap.ResumeCacheSessions != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("eviction accounting: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
		snap = srv.Snapshot()
	}
	if snap.ResumeCacheBytes <= 0 {
		t.Fatalf("cache bytes gauge %d with %d parked sessions", snap.ResumeCacheBytes, snap.ResumeCacheSessions)
	}
}

// TestRunStreamLoadResume drives the stream load generator's resume mode
// against a live daemon: the generator's own proxy severs connections on
// schedule, and the run must still finish with zero mismatches against the local
// windowed decode, at least one recovery sample, and recovery quantiles
// that parse as a CDF (sorted ascending).
func TestRunStreamLoadResume(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances:       []int{3},
		P:               1e-3,
		StreamResumeTTL: 30 * time.Second,
		Envs:            map[int]*montecarlo.Env{3: env},
	})
	rounds := 600
	if testing.Short() {
		rounds = 120
	}
	rep, err := RunStreamLoad(StreamLoadConfig{
		Addr:     srv.Addr().String(),
		Distance: 3,
		P:        1e-3,
		Codec:    compress.IDSparse,
		Rounds:   rounds,
		Seed:     13,
		Resume:   true,
		Kills:    3,
		Retry:    fastRetry,
		Verify:   true,
		env:      env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds || rep.Windows == 0 {
		t.Fatalf("degenerate run: %+v", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d commits disagree with the local windowed decode", rep.Mismatches)
	}
	if rep.Reconnects == 0 || len(rep.RecoveryNs) != rep.Reconnects {
		t.Fatalf("recovery accounting: %d reconnects, %d recovery samples", rep.Reconnects, len(rep.RecoveryNs))
	}
	for i := 1; i < len(rep.RecoveryNs); i++ {
		if rep.RecoveryNs[i] < rep.RecoveryNs[i-1] {
			t.Fatalf("recovery samples not sorted: %v", rep.RecoveryNs)
		}
	}
	if rep.Summary.Windows != uint64(rep.Windows) || rep.Summary.TotalRows != uint64(rounds) {
		t.Fatalf("summary %+v disagrees with report %+v", rep.Summary, rep)
	}
	t.Logf("resume load: %d kills, %d reconnects, %d rounds replayed, recoveries %v",
		rep.Kills, rep.Reconnects, rep.ReplayedRounds, rep.RecoveryNs)
}

// recordBackoffs opens a ResumingStream against a dialer that always
// fails, so every attempt after the first backs off once: MaxAttempts
// attempts record the waits for backoff(0) … backoff(MaxAttempts-2).
func recordBackoffs(t *testing.T, pol RetryPolicy) []time.Duration {
	t.Helper()
	var slept []time.Duration
	pol.Sleep = func(d time.Duration) { slept = append(slept, d) }
	dial := func() (*Client, error) { return nil, errors.New("dial refused") }
	if _, err := NewResumingStream(dial, ResumingStreamOptions{Retry: pol}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("open against a dead dialer = %v, want ErrRetriesExhausted", err)
	}
	return slept
}

// TestBackoffJitterWithinDocumentedCap drives the reconnect backoff with an
// injected jitter source sweeping [0, 1) and asserts every wait lands in
// the documented envelope — [w/2, w) around the exponential base — and
// never exceeds MaxBackoff once the schedule passes the cap.
func TestBackoffJitterWithinDocumentedCap(t *testing.T) {
	const (
		base = 2 * time.Millisecond
		cap  = 50 * time.Millisecond
	)
	for _, j := range []float64{0, 0.25, 0.5, 0.999999} {
		slept := recordBackoffs(t, RetryPolicy{
			MaxAttempts: 9,
			BaseBackoff: base,
			MaxBackoff:  cap,
			Rand:        func() float64 { return j },
		})
		if len(slept) != 8 {
			t.Fatalf("jitter=%v: recorded %d backoffs, want 8", j, len(slept))
		}
		for i, d := range slept {
			// Expected base wait: the exponential schedule clipped to the cap.
			w := base << uint(i)
			if w > cap || w <= 0 {
				w = cap
			}
			lo, hi := w/2, w
			if d < lo || d >= hi {
				t.Errorf("jitter=%v attempt %d: slept %v, want [%v, %v)", j, i, d, lo, hi)
			}
			if d > cap {
				t.Errorf("jitter=%v attempt %d: slept %v beyond the %v cap", j, i, d, cap)
			}
		}
	}
}

// TestBackoffDeterministicReplay: the same Seed must reproduce the same
// jitter sequence, and distinct seeds must diverge — the property chaos
// tests rely on to replay a failing run exactly.
func TestBackoffDeterministicReplay(t *testing.T) {
	record := func(seed uint64) []time.Duration {
		return recordBackoffs(t, RetryPolicy{
			MaxAttempts: 7,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  time.Second,
			Seed:        seed,
		})
	}
	a, b, c := record(7), record(7), record(8)
	if len(a) != 6 {
		t.Fatalf("recorded %d backoffs, want 6", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, a[i], b[i])
		}
	}
	if slices.Equal(a, c) {
		t.Fatal("distinct seeds produced identical jitter sequences")
	}
}
