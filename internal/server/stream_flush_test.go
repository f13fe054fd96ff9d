package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/montecarlo"
	"astrea/internal/stream"
)

// scriptConn is a client conn with no server behind it: reads come from a
// scripted byte queue (an unscripted read fails with io.EOF), and every
// write is counted and kept.
type scriptConn struct {
	in     bytes.Buffer
	out    bytes.Buffer
	writes int
}

func (c *scriptConn) script(t FrameType, payload []byte) {
	c.in.Write(appendFrame(nil, t, payload, false))
}

func (c *scriptConn) Read(b []byte) (int, error)  { return c.in.Read(b) }
func (c *scriptConn) Write(b []byte) (int, error) { c.writes++; return c.out.Write(b) }
func (c *scriptConn) Close() error                { return nil }
func (c *scriptConn) LocalAddr() net.Addr         { return nil }
func (c *scriptConn) RemoteAddr() net.Addr        { return nil }
func (c *scriptConn) SetDeadline(time.Time) error { return nil }

func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptedClient handshakes a Client over a scriptConn that offers and
// accepts the stream and resume features, with the handshake's write taken.
func scriptedClient(t *testing.T, rowBits int) (*Client, *scriptConn) {
	t.Helper()
	sc := &scriptConn{}
	features := FeatureStream | FeatureStreamResume
	sc.script(FrameHelloAck, HelloAck{
		Version: ProtocolVersion, NumDetectors: uint32(rowBits), Codec: compress.IDDense, Features: features,
	}.AppendTo(nil))
	c, err := NewClientOptions(sc, 3, compress.IDDense, ClientOptions{HandshakeTimeout: -1, Features: features})
	if err != nil {
		t.Fatal(err)
	}
	sc.writes = 0
	sc.out.Reset()
	return c, sc
}

// TestStreamRoundsWriteRule pins SendRounds' write rule at the socket,
// with no server: a rounds frame is written at once only while the rounds
// already written are fewer than holdRows past the commit watermark; past
// it the frame queues, and Recv's flush before it reads carries the queue.
// Opened and resumed streams start from their own watermarks.
func TestStreamRoundsWriteRule(t *testing.T) {
	const rowBits = 8
	ack := StreamOpenAck{WindowRounds: 4, GapRounds: 2, PadRounds: 2, RowBits: rowBits}
	hold := int(holdRows(ack))
	row := []bitvec.Vec{bitvec.New(rowBits)}
	send := func(t *testing.T, st *Stream, sc *scriptConn, wantWrites int) {
		t.Helper()
		if err := st.SendRounds(row); err != nil {
			t.Fatal(err)
		}
		if sc.writes != wantWrites {
			t.Fatalf("after round %d: %d writes, want %d", st.Sent()-1, sc.writes, wantWrites)
		}
	}

	t.Run("open", func(t *testing.T) {
		c, sc := scriptedClient(t, rowBits)
		sc.script(FrameStreamOpenAck, ack.AppendTo(nil))
		st, err := c.OpenStream(StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sc.writes = 0
		sc.out.Reset()
		for i := 1; i <= hold; i++ {
			send(t, st, sc, i) // written − committed < hold: each call writes
		}
		for range 3 {
			send(t, st, sc, hold) // the written rounds force a commit: queue
		}
		// A commit over [0, 5) arrives; Recv writes the three queued frames
		// in one write before it reads it.
		sc.script(FrameStreamCorrections, StreamCorrections{FirstRow: 0, RowCount: 5}.AppendTo(nil))
		if _, err := st.Recv(); err != nil {
			t.Fatal(err)
		}
		if sc.writes != hold+1 {
			t.Fatalf("Recv made %d writes, want 1", sc.writes-hold)
		}
		// written = hold+3, committed = 5: two more calls write, then the
		// backlog is back at hold and the next one queues.
		send(t, st, sc, hold+2)
		send(t, st, sc, hold+3)
		send(t, st, sc, hold+3)
		if err := st.CloseSend(); err != nil {
			t.Fatal(err)
		}
		// Every frame left, whole and in order.
		br := bufio.NewReader(&sc.out)
		var next uint64
		for {
			ft, payload, _, err := readFrame(br, nil, 0, false)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if ft == FrameStreamClose {
				break
			}
			fr, err := ParseStreamRounds(payload)
			if err != nil || fr.FirstRow != next || fr.Count != 1 {
				t.Fatalf("frame %d: %+v, %v", next, fr, err)
			}
			next++
		}
		if next != st.Sent() {
			t.Fatalf("%d rounds reached the socket, %d were sent", next, st.Sent())
		}
	})

	t.Run("open-at", func(t *testing.T) {
		c, sc := scriptedClient(t, rowBits)
		sc.script(FrameStreamOpenAck, ack.AppendTo(nil))
		st, err := c.OpenStreamAt(StreamOptions{}, 50, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc.writes = 0
		send(t, st, sc, 1) // watermark 50, not 0: the first round writes
	})

	t.Run("resume", func(t *testing.T) {
		c, sc := scriptedClient(t, rowBits)
		sc.script(FrameStreamResumed, StreamResumed{RowsReceived: 100}.AppendTo(nil))
		const ackRow = 95
		st, _, err := c.ResumeStream(1, ackRow, 100, ack)
		if err != nil || st == nil {
			t.Fatalf("resume: %v, %v", st, err)
		}
		sc.writes = 0
		// 100 rounds written against watermark 95: hold−5 calls write.
		for i := 1; i <= hold-(100-ackRow); i++ {
			send(t, st, sc, i)
		}
		send(t, st, sc, hold-(100-ackRow))
	})
}

// TestStreamRoundsLiveness drives a real session one round per SendRounds:
// d=3 with nearly every cut forced, opened mid-stream with a carried seam
// prefix. In the first half the sender runs ahead of a receiver that has
// not started, so rounds past the first holdRows queue and both ends must
// coalesce. In the second half the sender keeps exactly holdRows rounds
// written and uncommitted plus one queued, and waits: only the commit those
// written rounds force can wake the parked receiver, whose flush carries the
// queued round. The session must finish bit-identical to a local closed
// decode with fewer client writes than rounds frames and fewer server
// flushes than commits. Counts only, never wall-clock time.
func TestStreamRoundsLiveness(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Decoder:   "astrea",
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	opts := StreamOptions{WindowRounds: 24, GapRounds: 22}
	rows := sampleStreamRows(env, 0x11FE, 400)
	cfg, err := resolveStreamConfig(env, "astrea", StreamOpen{
		WindowRounds: uint16(opts.WindowRounds), GapRounds: uint16(opts.GapRounds),
	})
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := stream.DecodeClosed(cfg, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Re-open cold after the first forced commit past the opening windows:
	// the session starts with that commit's seam as its carried prefix.
	k := 2
	for k < len(local) && !local[k].Forced {
		k++
	}
	if k >= len(local)-8 {
		t.Fatalf("no forced commit to resume after among %d", len(local))
	}
	split := local[k]
	start := split.FirstRow + uint64(split.RowCount)
	carry := make([]byte, 0, len(split.Carry)*8)
	for _, w := range split.Carry {
		carry = binary.LittleEndian.AppendUint64(carry, w)
	}
	want := local[k+1:]

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: nc}
	client, err := NewClientOptions(tap, 3, compress.IDSparse, ClientOptions{Features: FeatureStream})
	if err != nil {
		nc.Close()
		t.Fatal(err)
	}
	defer client.Close()
	before := srv.Snapshot()
	st, err := client.OpenStreamAt(opts, start, split.WindowSeq+1, uint16(split.CarryRows), carry)
	if err != nil {
		t.Fatal(err)
	}
	tap.take()

	var mu sync.Mutex
	committed := start
	progress := sync.NewCond(&mu)
	ahead := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		tail := rows[start:]
		half := len(tail) / 2
		for i, r := range tail {
			if i == half {
				close(ahead)
			}
			if i >= half {
				mu.Lock()
				for st.Sent()-committed > st.hold && committed != ^uint64(0) {
					progress.Wait()
				}
				mu.Unlock()
			}
			if err := st.SendRounds([]bitvec.Vec{r}); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- st.CloseSend()
	}()
	select {
	case <-ahead:
	case err := <-sendErr:
		t.Fatalf("send: %v", err)
	}
	var got []StreamCorrections
	for {
		ev, err := st.Recv()
		if err != nil {
			mu.Lock()
			committed = ^uint64(0) // release the sender
			progress.Broadcast()
			mu.Unlock()
			<-sendErr
			t.Fatalf("stream died after %d commits: %v", len(got), err)
		}
		if ev.Closed {
			break
		}
		got = append(got, ev.Commit)
		mu.Lock()
		committed = ev.Commit.FirstRow + uint64(ev.Commit.RowCount)
		progress.Broadcast()
		mu.Unlock()
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	writes := len(tap.take())
	// The connection is back in decode mode once the session is accounted:
	// a round trip orders the snapshot after it.
	if _, err := client.Decode(1, bigDeadline, bitvec.New(env.Model.NumDetectors)); err != nil {
		t.Fatal(err)
	}
	after := srv.Snapshot()

	if len(got) != len(want) {
		t.Fatalf("wire committed %d windows after the split, local pipeline %d", len(got), len(want))
	}
	for i, cm := range got {
		w := want[i]
		if cm.WindowSeq != w.WindowSeq || cm.FirstRow != w.FirstRow || int(cm.RowCount) != w.RowCount || cm.ObsMask != w.ObsMask {
			t.Fatalf("commit %d: wire {seq %d row %d n %d obs %#x} != local {seq %d row %d n %d obs %#x}",
				i, cm.WindowSeq, cm.FirstRow, cm.RowCount, cm.ObsMask, w.WindowSeq, w.FirstRow, w.RowCount, w.ObsMask)
		}
	}
	frames := len(rows) - int(start)
	if writes >= frames {
		t.Fatalf("%d client writes for %d rounds frames: SendRounds never queued", writes, frames)
	}
	// The delta also holds the open-ack, the summary and the decode result.
	if flushes := after.Flushes - before.Flushes; flushes >= int64(len(got)) {
		t.Fatalf("%d server flushes for %d commits: commits never shared a write", flushes, len(got))
	}
	t.Logf("%d commits (%d rounds) in %d client writes and %d server flushes",
		len(got), frames, writes, after.Flushes-before.Flushes)
}
