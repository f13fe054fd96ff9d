package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"astrea/internal/astrea"
	"astrea/internal/compress"
	"astrea/internal/decoder"
	"astrea/internal/experiments"
	"astrea/internal/faultinject"
	"astrea/internal/montecarlo"
)

// TestCoalescedResultsExactlyOnce drives two pipelined connections through
// server-side connections that stall and short-read on a seeded schedule:
// results are queued per connection and flushed per batch, so the failure
// modes to rule out are an answer stranded in a write buffer, written
// twice, or attributed to the wrong request. It runs over both routes a
// request can take: an Astrea pool answers every request inline on the
// connection's reader, a wrapped decoder sends every one through the worker
// queue, and an Astrea-G pool at p = 3e-3 interleaves the two on each
// connection (HW ≤ 10 inline, heavier syndromes queued).
func TestCoalescedResultsExactlyOnce(t *testing.T) {
	leakCheck(t)
	wrapped := func(e *montecarlo.Env) (decoder.Decoder, error) {
		inner, err := experiments.AstreaFactory(e)
		if err != nil {
			return nil, err
		}
		return slowDecoder{inner: inner}, nil
	}
	for _, tc := range []struct {
		name, decoder string
		p             float64
		factory       montecarlo.Factory // nil: the decoder's own
		route         string             // "inline", "queued" or "mixed"
	}{
		{name: "astrea", decoder: "astrea", p: 1e-3, route: "inline"},
		{name: "wrapped", decoder: "astrea", p: 1e-3, factory: wrapped, route: "queued"},
		{name: "astrea-g", decoder: "astrea-g", p: 3e-3, route: "mixed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := montecarlo.SharedEnv(5, 5, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := experiments.FactoryFor(tc.decoder)
			if err != nil {
				t.Fatal(err)
			}
			coalescedExactlyOnce(t, env, Config{Decoder: tc.decoder, factory: tc.factory}, ref, tc.route)
		})
	}
}

// coalescedExactlyOnce is one pool's run of TestCoalescedResultsExactlyOnce:
// cfg names the decoder, ref decodes the expected answers locally, and route
// says which way the daemon must have sent the requests.
func coalescedExactlyOnce(t *testing.T, env *montecarlo.Env, cfg Config, ref montecarlo.Factory, route string) {
	const conns, depth = 2, 8
	perConn := 20000
	if testing.Short() {
		perConn = 2000
	}
	cfg.Distances, cfg.P, cfg.Envs = []int{5}, env.P, map[int]*montecarlo.Env{5: env}
	srv := startServerOn(t, cfg, func(ln net.Listener) net.Listener {
		return faultinject.WrapListener(ln, faultinject.Config{
			Seed:       11,
			StallP:     0.002,
			StallMin:   50 * time.Microsecond,
			StallMax:   400 * time.Microsecond,
			ShortReadP: 0.3,
		})
	})
	syn := sampleLoadSyndromes(env, 5, 4096)
	dec, err := ref(env)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(syn))
	for i, s := range syn {
		want[i] = dec.Decode(s).ObsPrediction
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				c, err := Dial(srv.Addr().String(), 5, compress.IDSparse)
				if err != nil {
					return err
				}
				defer c.Close()
				answered := make([]bool, perConn)
				for sent, got := 0, 0; got < perConn; got++ {
					for ; sent < perConn && sent-got < depth; sent++ {
						if err := c.Send(uint64(sent), 1e9, syn[(ci*perConn+sent)%len(syn)]); err != nil {
							return fmt.Errorf("conn %d send %d: %w", ci, sent, err)
						}
					}
					resp, err := c.Recv()
					if err != nil {
						return fmt.Errorf("conn %d recv after %d: %w", ci, got, err)
					}
					switch {
					case resp.Seq >= uint64(sent):
						return fmt.Errorf("conn %d: answer for unsent seq %d", ci, resp.Seq)
					case answered[resp.Seq]:
						return fmt.Errorf("conn %d: seq %d answered twice", ci, resp.Seq)
					case resp.Rejected || resp.Err != "" || resp.Degraded:
						return fmt.Errorf("conn %d: seq %d not decoded: %+v", ci, resp.Seq, resp)
					case resp.ObsMask != want[(ci*perConn+int(resp.Seq))%len(syn)]:
						return fmt.Errorf("conn %d: seq %d obs mask %#x disagrees with the local decoder", ci, resp.Seq, resp.ObsMask)
					}
					answered[resp.Seq] = true
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every answer was received, so the queue is idle: no connection may
	// still hold queued bytes, and the counters must account for every frame.
	srv.mu.Lock()
	for c := range srv.conns {
		c.wmu.Lock()
		if len(c.wbuf) != 0 || c.wframes != 0 {
			t.Errorf("idle connection still holds %d queued bytes (%d frames)", len(c.wbuf), c.wframes)
		}
		c.wmu.Unlock()
	}
	srv.mu.Unlock()
	snap := srv.Snapshot()
	total := int64(conns * perConn)
	if snap.Offered != total || snap.Accepted != total || snap.Completed != total || snap.Rejected != 0 {
		t.Fatalf("accounting broken: offered %d accepted %d completed %d rejected %d, want %d/0",
			snap.Offered, snap.Accepted, snap.Completed, snap.Rejected, total)
	}
	if want := total + conns; snap.FramesOut != want { // + one hello-ack each
		t.Fatalf("frames_out %d, want %d results + %d hello-acks", snap.FramesOut, total, conns)
	}
	if snap.Flushes >= snap.FramesOut {
		t.Fatalf("%d flushes for %d frames: depth-%d pipelining never coalesced a write", snap.Flushes, snap.FramesOut, depth)
	}

	// The route is a function of the pool and the syndrome alone.
	var light int64
	for ci := 0; ci < conns; ci++ {
		for i := 0; i < perConn; i++ {
			if syn[(ci*perConn+i)%len(syn)].PopCount() <= astrea.MaxHW {
				light++
			}
		}
	}
	if route == "mixed" && (light == 0 || light == total) {
		t.Fatalf("mixed route: %d of %d syndromes have HW ≤ %d; the sample cannot interleave routes", light, total, astrea.MaxHW)
	}
	if want := map[string]int64{"inline": total, "queued": 0, "mixed": light}[route]; snap.Inline != want {
		t.Fatalf("%s route: %d of %d answered inline, want %d", route, snap.Inline, total, want)
	}
	t.Logf("%.2f frames per write, %d of %d inline, mean queued batch %.2f",
		float64(snap.FramesOut)/float64(snap.Flushes), snap.Inline, total, snap.MeanBatch)
}

// TestSlowDecoderFlushBound pins the other half of the coalescing contract:
// a batch of slow decodes must not hold its first answer until the batch
// ends. One worker is kept busy by a first request while eight more queue
// up behind it — a single batch — and the first of those eight must reach
// the client while most of the batch is still undecoded.
func TestSlowDecoderFlushBound(t *testing.T) {
	leakCheck(t)
	// Far above resultFlushBound and above scheduler noise, so "answered
	// after two decodes" and "answered after eight" cannot be confused.
	const delay = 2 * time.Millisecond
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Workers:   1,
		Envs:      map[int]*montecarlo.Env{3: env},
		factory: func(e *montecarlo.Env) (decoder.Decoder, error) {
			inner, err := experiments.AstreaFactory(e)
			if err != nil {
				return nil, err
			}
			return slowDecoder{inner: inner, delay: delay}, nil
		},
	})
	c, err := Dial(srv.Addr().String(), 3, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	syn := sampleLoadSyndromes(env, 3, 1)[0]
	const pipelined = 8
	for seq := uint64(0); seq <= pipelined; seq++ {
		if err := c.Send(seq, 1e9, syn); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got <= pipelined; got++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != 1 {
			continue
		}
		// Seq 0 was a batch of its own; seq 1 leads the batch of eight. It
		// is flushed when seq 2's decode finds it has waited past the bound.
		if done := srv.stats.completed.Load(); done > 1+pipelined/2 {
			t.Fatalf("first answer of the batch arrived after %d decodes; it waited for the batch instead of the flush bound", done)
		}
	}
}

// recordingConn is a net.Conn that records each Write (and can fail them).
type recordingConn struct {
	net.Conn
	writes [][]byte
	fail   error
	closed bool
}

func (c *recordingConn) Write(b []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes = append(c.writes, bytes.Clone(b))
	return len(b), nil
}
func (c *recordingConn) SetWriteDeadline(time.Time) error { return nil }
func (c *recordingConn) Close() error                     { c.closed = true; return nil }

// TestOneWritePerFlush checks the write half at the socket boundary: every
// Write carries whole frames only, a flush is exactly one Write however
// many frames are queued, frames leave in append order whichever path
// appended them, and a failed flush closes the connection for good.
func TestOneWritePerFlush(t *testing.T) {
	for _, features := range []uint32{0, FeatureChecksum} {
		rec := &recordingConn{}
		c := &conn{Conn: rec, stats: &stats{}, features: features, wTimeout: time.Second}
		c.queueResult(ResultFrame{Seq: 1, ObsMask: 1})
		c.queueResult(ResultFrame{Seq: 2})
		if len(rec.writes) != 0 {
			t.Fatalf("features %#x: queueing a result wrote to the socket", features)
		}
		// A reject appended behind two queued results flushes all three.
		if err := c.writeFrame(FrameReject, RejectFrame{Seq: 3, RetryAfterNs: 9}.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		if err := c.flush(); err != nil || len(rec.writes) != 1 {
			t.Fatalf("features %#x: %d writes after one flush and one empty flush (err %v), want 1", features, len(rec.writes), err)
		}
		c.queueResult(ResultFrame{Seq: 4})
		if err := c.flush(); err != nil || len(rec.writes) != 2 {
			t.Fatalf("features %#x: %d writes after the second flush (err %v), want 2", features, len(rec.writes), err)
		}

		read := ReadFrame
		if features&FeatureChecksum != 0 {
			read = ReadFrameChecked
		}
		var seqs []uint64
		for i, w := range rec.writes {
			r := bytes.NewReader(w)
			for r.Len() > 0 {
				ft, payload, err := read(r, 0)
				if err != nil {
					t.Fatalf("features %#x: write %d does not end on a frame boundary: %v", features, i, err)
				}
				switch ft {
				case FrameResult:
					rf, err := ParseResultFrame(payload)
					if err != nil {
						t.Fatal(err)
					}
					seqs = append(seqs, rf.Seq)
				case FrameReject:
					rj, err := ParseRejectFrame(payload)
					if err != nil {
						t.Fatal(err)
					}
					seqs = append(seqs, rj.Seq)
				default:
					t.Fatalf("unexpected frame type %d", ft)
				}
			}
		}
		if fmt.Sprint(seqs) != "[1 2 3 4]" {
			t.Fatalf("features %#x: frames left in order %v, want append order [1 2 3 4]", features, seqs)
		}
		if f, n := c.stats.flushes.Load(), c.stats.framesOut.Load(); f != 2 || n != 4 {
			t.Fatalf("features %#x: counted %d flushes / %d frames, want 2 / 4", features, f, n)
		}

		rec.fail = errors.New("peer went away")
		c.queueResult(ResultFrame{Seq: 5})
		if err := c.flush(); err == nil || !rec.closed {
			t.Fatalf("features %#x: failed flush returned %v, closed=%v", features, err, rec.closed)
		}
		c.queueResult(ResultFrame{Seq: 6})
		if err := c.writeFrame(FramePong, nil); err == nil || len(c.wbuf) != 0 {
			t.Fatalf("features %#x: a closed connection still accepts frames (err %v, %d bytes queued)", features, err, len(c.wbuf))
		}
	}
}
