package server

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzStreamFrame feeds arbitrary byte streams through the frame reader
// and every streaming payload parser, mirroring FuzzFrame for the
// FeatureStream frame set: malformed lengths, truncated payloads and
// hostile counts must surface as errors — never panics — and anything a
// parser accepts must survive a serialise/parse round trip unchanged.
func FuzzStreamFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	var seed bytes.Buffer
	WriteFrame(&seed, FrameStreamOpen, StreamOpen{WindowRounds: 12, GapRounds: 5,
		PadRounds: 3, RowBudgetNs: 1000, MaxInflight: 4}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamOpenAck, StreamOpenAck{Status: StatusOK, WindowRounds: 12,
		GapRounds: 5, PadRounds: 3, RowBudgetNs: 1000, MaxInflight: 4, RowBits: 4, Message: "ok"}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamRounds, StreamRounds{FirstRow: 7, Count: 2, Rows: []byte{0, 1, 3}}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamCorrections, StreamCorrections{WindowSeq: 1, FirstRow: 7,
		RowCount: 6, ObsMask: 3, WeightMilli: 1200, SojournNs: 800, Flags: FlagForcedSeam}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamClose, nil)
	WriteFrame(&seed, FrameStreamClosed, StreamClosed{TotalRows: 13, Windows: 2, ForcedCuts: 1,
		ObsMask: 3, WeightMilli: 2400, DeadlineMisses: 1, Flags: FlagDeadlineMiss}.AppendTo(nil))
	f.Add(seed.Bytes())
	// A hostile rounds frame: a giant Count riding a tiny payload.
	f.Add(StreamRounds{FirstRow: 0, Count: 65535, Rows: []byte{1}}.AppendTo(nil))
	f.Fuzz(checkStreamFrames)
}

// checkStreamFrames reads frames until the input runs out and holds every
// streaming payload a parser accepts to a serialise/parse round trip.
func checkStreamFrames(t *testing.T, data []byte) {
	r := bytes.NewReader(data)
	for {
		ft, payload, err := ReadFrame(r, 1<<16)
		if err != nil {
			return
		}
		switch ft {
		case FrameStreamOpen:
			if o, err := ParseStreamOpen(payload); err == nil {
				if int(o.CarrySeam) > maxStreamSeamRows {
					t.Fatalf("parser accepted seam %d", o.CarrySeam)
				}
				if back, err := ParseStreamOpen(o.AppendTo(nil)); err != nil || !sameStreamOpen(back, o) {
					t.Fatalf("stream-open round trip diverged: %+v vs %+v (%v)", back, o, err)
				}
			}
		case FrameStreamOpenAck:
			if a, err := ParseStreamOpenAck(payload); err == nil {
				if back, err := ParseStreamOpenAck(a.AppendTo(nil)); err != nil || back != a {
					t.Fatalf("stream-open-ack round trip diverged: %+v vs %+v (%v)", back, a, err)
				}
			}
		case FrameStreamRounds:
			if rr, err := ParseStreamRounds(payload); err == nil {
				if rr.Count == 0 || int(rr.Count) > maxStreamRowsPerFrame {
					t.Fatalf("parser accepted count %d", rr.Count)
				}
				back, err := ParseStreamRounds(rr.AppendTo(nil))
				if err != nil || back.FirstRow != rr.FirstRow || back.Count != rr.Count || !bytes.Equal(back.Rows, rr.Rows) {
					t.Fatalf("stream-rounds round trip diverged: %+v vs %+v (%v)", back, rr, err)
				}
			}
		case FrameStreamCorrections:
			if c, err := ParseStreamCorrections(payload); err == nil {
				if int(c.CarrySeam) > maxStreamSeamRows {
					t.Fatalf("parser accepted seam %d", c.CarrySeam)
				}
				if back, err := ParseStreamCorrections(c.AppendTo(nil)); err != nil || !sameStreamCorrections(back, c) {
					t.Fatalf("stream-corrections round trip diverged: %+v vs %+v (%v)", back, c, err)
				}
			}
		case FrameStreamClosed:
			if c, err := ParseStreamClosed(payload); err == nil {
				if back, err := ParseStreamClosed(c.AppendTo(nil)); err != nil || back != c {
					t.Fatalf("stream-closed round trip diverged: %+v vs %+v (%v)", back, c, err)
				}
			}
		case FrameStreamResume:
			if rr, err := ParseStreamResume(payload); err == nil {
				if back, err := ParseStreamResume(rr.AppendTo(nil)); err != nil || back != rr {
					t.Fatalf("stream-resume round trip diverged: %+v vs %+v (%v)", back, rr, err)
				}
			}
		case FrameStreamResumed:
			if rr, err := ParseStreamResumed(payload); err == nil {
				if back, err := ParseStreamResumed(rr.AppendTo(nil)); err != nil || back != rr {
					t.Fatalf("stream-resumed round trip diverged: %+v vs %+v (%v)", back, rr, err)
				}
			}
		}
	}
}

// sameStreamOpen and sameStreamCorrections compare field for field; the
// carry slice makes both structs non-comparable with ==.
func sameStreamOpen(a, b StreamOpen) bool {
	carry := bytes.Equal(a.Carry, b.Carry)
	a.Carry, b.Carry = nil, nil
	return carry && reflect.DeepEqual(a, b)
}

func sameStreamCorrections(a, b StreamCorrections) bool {
	carry := bytes.Equal(a.Carry, b.Carry)
	a.Carry, b.Carry = nil, nil
	return carry && reflect.DeepEqual(a, b)
}

// TestStreamPayloadBoundaries pins the exact length contracts of every
// streaming payload: one byte short and one byte long must both be
// rejected wherever the format is fixed-size, and the minimum-length forms
// of the variable-size payloads must parse. A carry byte behind a zero seam
// is the one-byte-long case of the seam-carrying payloads.
func TestStreamPayloadBoundaries(t *testing.T) {
	open := StreamOpen{WindowRounds: 1}.AppendTo(nil)
	if len(open) != 30 {
		t.Fatalf("carryless stream-open serialises to %d bytes, want 30", len(open))
	}
	if _, err := ParseStreamOpen(open); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStreamOpen(open[:29]); err == nil {
		t.Fatal("truncated stream-open accepted")
	}
	if _, err := ParseStreamOpen(append(open, 0)); err == nil {
		t.Fatal("carry bytes with a zero seam accepted")
	}

	ack := StreamOpenAck{Status: StatusOK, RowBits: 4}.AppendTo(nil)
	if len(ack) != 27 {
		t.Fatalf("messageless stream-open-ack serialises to %d bytes, want 27", len(ack))
	}
	if _, err := ParseStreamOpenAck(ack[:26]); err == nil {
		t.Fatal("truncated stream-open-ack accepted")
	}
	if a, err := ParseStreamOpenAck(append(ack, "why"...)); err != nil || a.Message != "why" {
		t.Fatalf("message tail lost: %+v (%v)", a, err)
	}

	rounds := StreamRounds{FirstRow: 9, Count: 1}.AppendTo(nil)
	if len(rounds) != 10 {
		t.Fatalf("rowless stream-rounds serialises to %d bytes, want 10", len(rounds))
	}
	if _, err := ParseStreamRounds(rounds); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStreamRounds(rounds[:9]); err == nil {
		t.Fatal("truncated stream-rounds accepted")
	}
	if _, err := ParseStreamRounds(StreamRounds{Count: 0}.AppendTo(nil)); err == nil {
		t.Fatal("zero-count stream-rounds accepted")
	}
	if _, err := ParseStreamRounds(StreamRounds{Count: maxStreamRowsPerFrame + 1}.AppendTo(nil)); err == nil {
		t.Fatal("over-cap count accepted")
	}

	corr := StreamCorrections{RowCount: 1}.AppendTo(nil)
	if len(corr) != 53 {
		t.Fatalf("carryless stream-corrections serialises to %d bytes, want 53", len(corr))
	}
	if _, err := ParseStreamCorrections(corr); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStreamCorrections(corr[:52]); err == nil {
		t.Fatal("truncated stream-corrections accepted")
	}
	if _, err := ParseStreamCorrections(append(corr, 0)); err == nil {
		t.Fatal("carry bytes with a zero seam accepted")
	}

	closed := StreamClosed{Windows: 1}.AppendTo(nil)
	if len(closed) != 49 {
		t.Fatalf("stream-closed serialises to %d bytes, want 49", len(closed))
	}
	if _, err := ParseStreamClosed(closed[:48]); err == nil {
		t.Fatal("truncated stream-closed accepted")
	}
	if _, err := ParseStreamClosed(append(closed, 0)); err == nil {
		t.Fatal("oversize stream-closed accepted")
	}
}
