package server

import (
	"bytes"
	"testing"
)

// FuzzStreamResumeFrame mirrors FuzzStreamFrame, seeded with what resumable
// sessions (FeatureStreamResume) put on the wire: a cold re-open's start
// row and carried seam, an ack's session token, a commit's ack watermark
// and seam, and the StreamResume/StreamResumed exchange. Malformed lengths,
// truncated payloads, hostile seam counts and misaligned carry bytes must
// surface as errors — never panics — and anything a parser accepts must
// survive a serialise/parse round trip unchanged.
func FuzzStreamResumeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	var seed bytes.Buffer
	WriteFrame(&seed, FrameStreamOpen, StreamOpen{WindowRounds: 12, GapRounds: 5, PadRounds: 3,
		RowBudgetNs: 1000, MaxInflight: 4, StartRow: 96, NextSeq: 7, CarrySeam: 3,
		Carry: make([]byte, 3*8)}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamOpenAck, StreamOpenAck{Status: StatusOK, WindowRounds: 12, GapRounds: 5,
		PadRounds: 3, RowBudgetNs: 1000, MaxInflight: 4, RowBits: 4,
		SessionToken: 0xDEC0DE, ResumeTTLMs: 120000, Message: "ok"}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamCorrections, StreamCorrections{WindowSeq: 1, FirstRow: 7, RowCount: 6,
		ObsMask: 3, WeightMilli: 1200, SojournNs: 800, Flags: FlagForcedSeam,
		AckRows: 13, CarrySeam: 3, Carry: make([]byte, 3*8)}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamResume, StreamResume{Token: 0xDEC0DE, AckRow: 96, SentRows: 104}.AppendTo(nil))
	WriteFrame(&seed, FrameStreamResumed, StreamResumed{Status: StatusOK, RowsReceived: 100, Closed: 1, Message: "m"}.AppendTo(nil))
	f.Add(seed.Bytes())
	// Hostile seams: a giant row count on a tiny carry, and a misaligned carry.
	f.Add(StreamOpen{CarrySeam: 65535, Carry: []byte{1}}.AppendTo(nil))
	f.Add(StreamCorrections{RowCount: 1, CarrySeam: 2, Carry: make([]byte, 17)}.AppendTo(nil))
	f.Fuzz(checkStreamFrames)
}

// TestStreamResumePayloadBoundaries pins the resume-bearing parts of the
// stream wire: seam declarations must be whole words under the cap, the
// ack's message must follow its session token, and the resume exchange's
// fixed and variable-tail forms keep their lengths and tails.
func TestStreamResumePayloadBoundaries(t *testing.T) {
	withSeam := StreamOpen{CarrySeam: 2, Carry: make([]byte, 16)}.AppendTo(nil)
	if _, err := ParseStreamOpen(withSeam); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStreamOpen(withSeam[:len(withSeam)-1]); err == nil {
		t.Fatal("misaligned carry accepted")
	}
	bigSeam := StreamOpen{CarrySeam: maxStreamSeamRows + 1,
		Carry: make([]byte, (maxStreamSeamRows+1)*8)}.AppendTo(nil)
	if _, err := ParseStreamOpen(bigSeam); err == nil {
		t.Fatal("over-cap seam accepted")
	}
	corrSeam := StreamCorrections{RowCount: 1, AckRows: 12, CarrySeam: 1, Carry: make([]byte, 8)}.AppendTo(nil)
	if c, err := ParseStreamCorrections(corrSeam); err != nil || c.AckRows != 12 || len(c.Carry) != 8 {
		t.Fatalf("seamed stream-corrections: %+v (%v)", c, err)
	}
	if _, err := ParseStreamCorrections(corrSeam[:len(corrSeam)-1]); err == nil {
		t.Fatal("misaligned carry accepted")
	}

	ack := StreamOpenAck{Status: StatusOK, RowBits: 4, SessionToken: 7, ResumeTTLMs: 1000}.AppendTo(nil)
	if a, err := ParseStreamOpenAck(append(ack, "why"...)); err != nil || a.Message != "why" || a.SessionToken != 7 {
		t.Fatalf("ack tail lost: %+v (%v)", a, err)
	}
	withMsg := StreamOpenAck{Status: StatusOK, Message: "m", SessionToken: 9}.AppendTo(nil)
	if a, err := ParseStreamOpenAck(withMsg); err != nil || a.Message != "m" || a.SessionToken != 9 {
		t.Fatalf("ack message must serialise after the resume fields: %+v (%v)", a, err)
	}

	res := StreamResume{Token: 1, AckRow: 2, SentRows: 3}.AppendTo(nil)
	if len(res) != 24 {
		t.Fatalf("stream-resume serialises to %d bytes, want 24", len(res))
	}
	if _, err := ParseStreamResume(res[:23]); err == nil {
		t.Fatal("truncated stream-resume accepted")
	}
	if _, err := ParseStreamResume(append(res, 0)); err == nil {
		t.Fatal("oversize stream-resume accepted")
	}

	resumed := StreamResumed{Status: StatusOK, RowsReceived: 5, Closed: 1}.AppendTo(nil)
	if len(resumed) != 10 {
		t.Fatalf("messageless stream-resumed serialises to %d bytes, want 10", len(resumed))
	}
	if _, err := ParseStreamResumed(resumed[:9]); err == nil {
		t.Fatal("truncated stream-resumed accepted")
	}
	if r, err := ParseStreamResumed(append(resumed, "gone"...)); err != nil || r.Message != "gone" {
		t.Fatalf("stream-resumed tail lost: %+v (%v)", r, err)
	}
}
