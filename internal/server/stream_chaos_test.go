package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astrea/internal/compress"
	"astrea/internal/faultinject"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// TestStreamChaosSoak is the streaming chaos acceptance test: sessions
// through a fault-injecting proxy (stalls, corruption, drops, partial
// writes), sessions whose client wedges mid-stream and gets idle-reaped,
// and sessions whose connection is killed between a commit and the next
// fuse — racing the in-flight window decodes against teardown. Invariants:
// no round is ever committed twice (checksummed frames make client-side
// contiguity accounting sound: a corrupted commit kills the session before
// it can masquerade as a duplicate), every opened session is accounted
// completed or aborted, and no pipeline goroutine outlives its session
// (the package leak check would trip).
func TestStreamChaosSoak(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	chaosSessions, shotsPerSession := 8, 60
	if testing.Short() {
		chaosSessions, shotsPerSession = 4, 20
	}
	srv := startServer(t, Config{
		Distances:        []int{3},
		P:                1e-3,
		HandshakeTimeout: 2 * time.Second,
		IdleTimeout:      500 * time.Millisecond,
		WriteTimeout:     2 * time.Second,
		Envs:             map[int]*montecarlo.Env{3: env},
	})
	proxy, err := faultinject.NewProxy(srv.Addr().String(), faultinject.Config{
		Seed:       41,
		StallP:     0.02,
		StallMin:   100 * time.Microsecond,
		StallMax:   2 * time.Millisecond,
		CorruptP:   0.005,
		DropP:      0.002,
		PartialP:   0.005,
		ShortReadP: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Chaotic sessions through the proxy. Any of them may die at any point;
	// the invariant each carries is that every commit it DOES observe is
	// contiguous — a duplicate or replayed round fails the test.
	var wg sync.WaitGroup
	errs := make(chan error, chaosSessions+2)
	for g := 0; g < chaosSessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := DialOptions(proxy.Addr(), 3, compress.IDSparse, ClientOptions{
				HandshakeTimeout: time.Second,
				CallTimeout:      time.Second,
				Features:         FeatureStream | FeatureChecksum,
			})
			if err != nil {
				return // chaos killed the handshake; fine
			}
			defer client.Close()
			rows := sampleStreamRows(env, uint64(0x50A1+g), shotsPerSession)
			commits, summary, _, err := driveStreamSession(client, StreamOptions{}, rows)
			// Whatever prefix of commits arrived must be contiguous from row
			// zero — duplicated or replayed commits are a bug even (especially)
			// on a session chaos killed halfway.
			var next uint64
			for i, cm := range commits {
				if cm.WindowSeq != uint64(i) || cm.FirstRow != next || cm.RowCount == 0 {
					errs <- fmt.Errorf("chaos session %d commit %d: seq %d row %d count %d (want seq %d row %d)",
						g, i, cm.WindowSeq, cm.FirstRow, cm.RowCount, i, next)
					return
				}
				next += uint64(cm.RowCount)
			}
			if err != nil {
				return // session chaos-killed after a valid prefix; fine
			}
			if next != uint64(len(rows)) || summary.TotalRows != uint64(len(rows)) {
				errs <- fmt.Errorf("chaos session %d closed clean but covered %d of %d rows", g, next, len(rows))
			}
		}(g)
	}

	// A session whose client wedges mid-stream without closing: the server's
	// idle deadline must reap it (and tear its pipeline down) rather than
	// holding the window buffers forever.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
			CallTimeout: 10 * time.Second,
			Features:    FeatureStream,
		})
		if err != nil {
			errs <- fmt.Errorf("stalled session dial: %w", err)
			return
		}
		defer client.Close()
		st, err := client.OpenStream(StreamOptions{})
		if err != nil {
			errs <- fmt.Errorf("stalled session open: %w", err)
			return
		}
		rows := sampleStreamRows(env, 0x57A11, 4)
		if err := st.SendRounds(rows); err != nil {
			errs <- fmt.Errorf("stalled session push: %w", err)
			return
		}
		// Wedge: no more rounds, no close. Recv must fail once the server
		// reaps the connection.
		if ev, err := st.Recv(); err == nil && ev.Closed {
			errs <- fmt.Errorf("stalled session got a clean close without sending one")
		}
	}()

	// A session killed between commit and fuse: push enough rounds to keep
	// windows in flight, take the first commit, then slam the connection
	// shut while later windows are still decoding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
			CallTimeout: 10 * time.Second,
			Features:    FeatureStream,
		})
		if err != nil {
			errs <- fmt.Errorf("killed session dial: %w", err)
			return
		}
		st, err := client.OpenStream(StreamOptions{})
		if err != nil {
			client.Close()
			errs <- fmt.Errorf("killed session open: %w", err)
			return
		}
		rows := sampleStreamRows(env, 0xDEAD, 80)
		go func() {
			for len(rows) > 0 { // feed until the conn dies under us
				n := 8
				if n > len(rows) {
					n = len(rows)
				}
				if st.SendRounds(rows[:n]) != nil {
					return
				}
				rows = rows[n:]
			}
		}()
		for {
			ev, err := st.Recv()
			if err != nil {
				break // conn may die first if commits outpace our reads
			}
			if ev.Closed {
				errs <- fmt.Errorf("killed session saw a clean close it never requested")
				break
			}
			break // first commit observed: kill now, mid-fuse
		}
		client.Close()
	}()

	wg.Wait()
	proxy.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Snapshot()
	// Every session the server opened ended exactly one way.
	if snap.StreamsOpened != snap.StreamsCompleted+snap.StreamsAborted {
		t.Fatalf("session accounting leaks: opened %d != completed %d + aborted %d",
			snap.StreamsOpened, snap.StreamsCompleted, snap.StreamsAborted)
	}
	// The wedged and killed sessions guarantee aborts happened, so the
	// teardown path (pipeline Abort + writer drain) actually soaked.
	if snap.StreamsAborted < 2 {
		t.Fatalf("only %d aborted sessions; the teardown path went unexercised", snap.StreamsAborted)
	}
	t.Logf("stream soak: %+v", snap)
}

// TestStreamChaosSoakResume is the resume-enabled chaos soak: resumable
// sessions through a fault-injecting proxy whose connections are
// additionally slammed shut on each session's seeded schedule of round
// counts, so every session is severed however fast it runs. Unlike the
// legacy soak — where a killed session is allowed to die after a valid
// prefix — every resumable session here MUST finish: the reconnect loop
// absorbs kills, corruption (checksummed frames turn it into connection
// death), stalls and short reads. Invariants: each session's commit stream is a
// contiguous partition with no round committed twice, the resume cache
// drains to zero once the server shuts down, session accounting balances,
// and no pipeline or pump goroutine leaks (package leak check).
func TestStreamChaosSoakResume(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	sessions, shotsPerSession := 6, 150
	if testing.Short() {
		sessions, shotsPerSession = 3, 40
	}
	srv := startServer(t, Config{
		Distances:       []int{3},
		P:               1e-3,
		Decoder:         "astrea",
		WriteTimeout:    2 * time.Second,
		StreamResumeTTL: 10 * time.Second,
		Envs:            map[int]*montecarlo.Env{3: env},
	})
	proxy, err := faultinject.NewProxy(srv.Addr().String(), faultinject.Config{
		Seed:       43,
		StallP:     0.02,
		StallMin:   100 * time.Microsecond,
		StallMax:   2 * time.Millisecond,
		CorruptP:   0.003,
		PartialP:   0.005,
		ShortReadP: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	var reconnects, replayed atomic.Int64
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rs, err := NewResumingStream(func() (*Client, error) {
				return DialOptions(proxy.Addr(), 3, compress.IDSparse, ClientOptions{
					HandshakeTimeout: 2 * time.Second,
					CallTimeout:      5 * time.Second,
					Features:         FeatureStream | FeatureStreamResume | FeatureChecksum,
				})
			}, ResumingStreamOptions{
				Retry: RetryPolicy{
					MaxAttempts: 25,
					BaseBackoff: 200 * time.Microsecond,
					MaxBackoff:  10 * time.Millisecond,
					Seed:        uint64(g + 1),
				},
			})
			if err != nil {
				errs <- fmt.Errorf("resume soak session %d: open: %w", g, err)
				return
			}
			defer rs.Close()
			rows := sampleStreamRows(env, uint64(0x2E50+g), shotsPerSession)
			// Scheduled connection kills on top of the probabilistic chaos.
			kills := killSchedule(prng.New(uint64(0xC1A05+g)), 4, 16, len(rows))
			commits, summary, err := driveResumingSession(rs, proxy, rows, kills, nil)
			if err != nil {
				errs <- fmt.Errorf("resume soak session %d: %w", g, err)
				return
			}
			if err := checkCommitPartition(commits, uint64(len(rows))); err != nil {
				errs <- fmt.Errorf("resume soak session %d: %w", g, err)
				return
			}
			if summary.TotalRows != uint64(len(rows)) {
				errs <- fmt.Errorf("resume soak session %d: summary covers %d of %d rows",
					g, summary.TotalRows, len(rows))
				return
			}
			reconnects.Add(int64(rs.Reconnects()))
			replayed.Add(int64(rs.ReplayedRounds()))
		}(g)
	}
	wg.Wait()
	proxy.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := srv.Snapshot()
	if snap.StreamsOpened != snap.StreamsCompleted+snap.StreamsAborted {
		t.Fatalf("session accounting leaks: opened %d != completed %d + aborted %d",
			snap.StreamsOpened, snap.StreamsCompleted, snap.StreamsAborted)
	}
	if snap.ResumeCacheSessions != 0 || snap.ResumeCacheBytes != 0 {
		t.Fatalf("resume cache did not drain: %d sessions, %d bytes",
			snap.ResumeCacheSessions, snap.ResumeCacheBytes)
	}
	if reconnects.Load() == 0 {
		t.Fatal("the kill schedule never severed a session; the soak soaked nothing")
	}
	t.Logf("resume soak: %d reconnects, %d rounds replayed, server %+v",
		reconnects.Load(), replayed.Load(), snap)
}
