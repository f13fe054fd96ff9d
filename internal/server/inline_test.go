package server

import (
	"testing"
	"time"

	"astrea/internal/astrea"
	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/decoder"
	"astrea/internal/experiments"
	"astrea/internal/montecarlo"
)

// TestInlineRouting pins where a decode request is answered: HW ≤ 10 on a
// pool offering DecodeObs is decoded on the connection's reader
// (the inline counter moves, the worker batch counter does not); a heavier
// syndrome on the same Astrea-G pool takes the queue; a wrapped decoder's
// pool never answers inline; and an inline answer that blew its deadline is
// flagged as a miss but never degraded, since it never waited in the queue.
func TestInlineRouting(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 5)
	srv := startServer(t, Config{
		Distances: []int{5},
		P:         1e-3,
		Decoder:   "astrea-g",
		Envs:      map[int]*montecarlo.Env{5: env},
	})
	c, err := Dial(srv.Addr().String(), 5, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref, err := experiments.AstreaGFactory(env)
	if err != nil {
		t.Fatal(err)
	}
	var light bitvec.Vec
	for _, s := range sampleLoadSyndromes(env, 3, 256) {
		if hw := s.PopCount(); hw >= 2 && hw <= astrea.MaxHW {
			light = s
			break
		}
	}
	if light.Len() == 0 {
		t.Fatal("no syndrome of HW 2..10 in the sample")
	}
	heavy := bitvec.New(env.Model.NumDetectors)
	for i := 0; i < astrea.MaxHW+2; i++ {
		heavy.Set(i * env.Model.NumDetectors / (astrea.MaxHW + 2))
	}

	decode := func(seq, deadlineNs uint64, s bitvec.Vec) Response {
		t.Helper()
		resp, err := c.Decode(seq, deadlineNs, s)
		if err != nil || resp.Rejected || resp.Err != "" {
			t.Fatalf("request %d: %+v, %v", seq, resp, err)
		}
		if want := ref.Decode(s).ObsPrediction; resp.ObsMask != want {
			t.Fatalf("request %d: obs mask %#x, local Astrea-G says %#x", seq, resp.ObsMask, want)
		}
		return resp
	}
	route := func(ctx string, inline, batches int64) {
		t.Helper()
		if snap := srv.Snapshot(); snap.Inline != inline || snap.Batches != batches {
			t.Fatalf("%s: inline %d, batches %d; want %d, %d", ctx, snap.Inline, snap.Batches, inline, batches)
		}
	}

	decode(0, 1e9, light)
	route("HW ≤ 10 on an Astrea-G pool", 1, 0)
	decode(1, 1e9, heavy)
	route("HW 12 on an Astrea-G pool", 1, 1)
	if resp := decode(2, 1, light); !resp.DeadlineMiss || resp.Degraded {
		t.Fatalf("1 ns inline request: deadline miss %v, degraded %v; want true, false", resp.DeadlineMiss, resp.Degraded)
	}
	route("1 ns deadline", 2, 1)
	if snap := srv.Snapshot(); snap.Degraded != 0 || snap.Accepted != 3 || snap.Completed != 3 {
		t.Fatalf("accounting: degraded %d, accepted %d, completed %d; want 0, 3, 3", snap.Degraded, snap.Accepted, snap.Completed)
	}

	slow := startServer(t, Config{
		Distances: []int{5},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{5: env},
		factory: func(e *montecarlo.Env) (decoder.Decoder, error) {
			inner, err := experiments.AstreaFactory(e)
			if err != nil {
				return nil, err
			}
			return slowDecoder{inner: inner, delay: time.Microsecond}, nil
		},
	})
	sc, err := Dial(slow.Addr().String(), 5, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if resp, err := sc.Decode(0, 1e9, light); err != nil || resp.Err != "" || resp.Rejected {
		t.Fatalf("slowed pool: %+v, %v", resp, err)
	}
	if snap := slow.Snapshot(); snap.Inline != 0 || snap.Batches != 1 {
		t.Fatalf("slowed pool: inline %d, batches %d; want 0, 1", snap.Inline, snap.Batches)
	}
}
