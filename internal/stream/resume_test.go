package stream

import (
	"fmt"
	"math"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/dem"
	"astrea/internal/leakcheck"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// resumeFrom restarts a pipeline from the watermark after prefix (the
// commits a client had received before losing its connection) and replays
// the uncommitted tail of rows, returning the resumed run's commits.
func resumeFrom(t *testing.T, cfg Config, rows []bitvec.Vec, prefix []Commit) []Commit {
	t.Helper()
	rcfg := cfg
	if n := len(prefix); n > 0 {
		last := prefix[n-1]
		rcfg.StartRow = last.FirstRow + uint64(last.RowCount)
		rcfg.StartSeq = last.WindowSeq + 1
		if last.Forced {
			rcfg.CarrySeam = last.CarryRows
			rcfg.Carry = last.Carry
		}
	}
	got, _, err := DecodeClosed(rcfg, rows[int(rcfg.StartRow):])
	if err != nil {
		t.Fatalf("resumed decode from row %d: %v", rcfg.StartRow, err)
	}
	return got
}

// commitEqual compares everything about a commit that is data rather than
// timing (SojournNs and DeadlineMiss are wall-clock artifacts).
func commitEqual(a, b Commit) bool {
	if a.WindowSeq != b.WindowSeq || a.FirstRow != b.FirstRow || a.RowCount != b.RowCount ||
		a.ObsMask != b.ObsMask || a.Defects != b.Defects || a.Forced != b.Forced ||
		a.Fallback != b.Fallback || a.Empty != b.Empty || a.CarryRows != b.CarryRows {
		return false
	}
	if math.Abs(a.Weight-b.Weight) > 1e-9*(1+math.Abs(b.Weight)) {
		return false
	}
	if len(a.Carry) != len(b.Carry) {
		return false
	}
	for i := range a.Carry {
		if a.Carry[i] != b.Carry[i] {
			return false
		}
	}
	return true
}

// TestPipelineResumeBitIdentical is the resume-math proof at the pipeline
// level: restarting a pipeline from ANY commit watermark — after a clean
// cut or a forced cut, using Commit.Carry to seed the successor's seam —
// and replaying the uncommitted raw tail reproduces the uninterrupted
// run's remaining commits bit-for-bit.
func TestPipelineResumeBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	cases := []struct {
		d      int
		p      float64
		rounds int
	}{
		{d: 3, p: 8e-3, rounds: 60},
		{d: 5, p: 5e-3, rounds: 40},
	}
	streams := 6
	if testing.Short() {
		streams = 2
	}
	for _, tc := range cases {
		env, err := montecarlo.SharedEnv(tc.d, tc.d, tc.p)
		if err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
		cfg := Config{
			Env:     env,
			Decoder: "mwpm",
			// A tight cap at heavy noise makes forced cuts (the hard resume
			// boundary: the seam must be reconstructed) common.
			WindowRounds: SafeGapRounds(env) + 2,
		}

		width := RowWidth(env)
		detRows := env.Graph.N / width
		smp := dem.NewSampler(env.Model)
		rng := prng.New(uint64(0x5E50E + tc.d))
		synd := bitvec.New(env.Graph.N)
		var forcedBoundaries, cleanBoundaries int
		for s := 0; s < streams; s++ {
			rows := make([]bitvec.Vec, 0, tc.rounds+detRows)
			for len(rows) < tc.rounds {
				smp.Sample(rng, synd)
				rows = append(rows, rowsOf(env, synd)...)
			}
			rows = rows[:tc.rounds]

			all, _, err := DecodeClosed(cfg, rows)
			if err != nil {
				t.Fatalf("d=%d stream %d: %v", tc.d, s, err)
			}
			checkPartition(t, all, uint64(len(rows)))

			// Resume from every commit boundary, including "no commits
			// received yet" (j=0) and "everything received" (j=len).
			for j := 0; j <= len(all); j++ {
				if j > 0 {
					if all[j-1].Forced {
						forcedBoundaries++
					} else {
						cleanBoundaries++
					}
				}
				got := resumeFrom(t, cfg, rows, all[:j])
				want := all[j:]
				if len(got) != len(want) {
					t.Fatalf("d=%d stream %d resume@%d: %d commits, want %d", tc.d, s, j, len(got), len(want))
				}
				for i := range got {
					if !commitEqual(got[i], want[i]) {
						t.Fatalf("d=%d stream %d resume@%d: commit %d diverged:\n got %+v\nwant %+v",
							tc.d, s, j, i, got[i], want[i])
					}
				}
			}
		}
		if forcedBoundaries == 0 {
			t.Fatalf("d=%d: no forced-cut resume boundary exercised — raise p or tighten WindowRounds", tc.d)
		}
		t.Logf("d=%d: %d clean + %d forced resume boundaries, all bit-identical", tc.d, cleanBoundaries, forcedBoundaries)
	}
}

// TestResumeConfigValidation pins the resume-config error paths: a carry
// that does not match the declared seam, a carry without a seam, and a
// close before the declared seam was replayed.
func TestResumeConfigValidation(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Env: env, CarrySeam: 2, Carry: []uint64{1}}); err == nil {
		t.Fatal("New accepted a carry shorter than the declared seam")
	}
	if _, err := New(Config{Env: env, Carry: []uint64{1}}); err == nil {
		t.Fatal("New accepted a carry without a seam")
	}
	if _, err := New(Config{Env: env, CarrySeam: 1 << 20}); err == nil {
		t.Fatal("New accepted a seam taller than the window cap")
	}

	rowWords := (RowWidth(env) + 63) / 64
	p, err := New(Config{Env: env, StartRow: 10, StartSeq: 2, CarrySeam: 2, Carry: make([]uint64, 2*rowWords)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushRow(bitvec.New(RowWidth(env))); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close accepted a stream whose carried seam was never fully replayed")
	}
	p.Abort()
	for range p.Commits() {
	}
}

// commitDigest folds every data field commitEqual compares into an FNV-1a
// digest. Weight enters in micro-decades, inside commitEqual's tolerance.
func commitDigest(h uint64, c Commit) uint64 {
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 0x100000001b3
			v >>= 8
		}
	}
	b := func(x bool) uint64 {
		if x {
			return 1
		}
		return 0
	}
	mix(c.WindowSeq)
	mix(c.FirstRow)
	mix(uint64(c.RowCount))
	mix(c.ObsMask)
	mix(uint64(math.Round(c.Weight * 1e6)))
	mix(uint64(c.Defects))
	mix(b(c.Forced)<<2 | b(c.Fallback)<<1 | b(c.Empty))
	mix(uint64(c.CarryRows))
	mix(uint64(len(c.Carry)))
	for _, w := range c.Carry {
		mix(w)
	}
	return h
}

// TestForcedSeamCommitDigest pins the whole commit stream — forced seams
// included, whose corrections are approximate and so match no whole-shot
// reference — on heavy-noise streams at d ∈ {3, 5, 7}, at the default window
// cap and at the tightest one, for a decoder that falls back (astrea) and
// one that does not (mwpm). A change to how windows are cut, decoded or
// split at a seam moves a digest.
func TestForcedSeamCommitDigest(t *testing.T) {
	leakcheck.Check(t)
	dists := []struct {
		d       int
		p       float64
		rounds  int
		streams int
	}{
		{d: 3, p: 8e-3, rounds: 400, streams: 4},
		{d: 5, p: 3e-3, rounds: 300, streams: 3},
		{d: 7, p: 2e-3, rounds: 200, streams: 3},
	}
	// Generated on the worker-pool pipeline this one replaced; the commit
	// stream did not move.
	want := map[string]uint64{
		"d=3/default/astrea": 0x86d6501a3ca1ffed,
		"d=3/default/mwpm":   0x8ff8215c588ab1e9,
		"d=3/tight/astrea":   0xa2626c4ac7baa4bc,
		"d=3/tight/mwpm":     0x680f255c3ef8ae30,
		"d=5/default/astrea": 0xacd1b5276b31fd63,
		"d=5/default/mwpm":   0x1575ef5f5482082f,
		"d=5/tight/astrea":   0x8fb3642e64fa4b00,
		"d=5/tight/mwpm":     0x52a2d6e2a0711ca5,
		"d=7/default/astrea": 0x3b69a83b02fe89fc,
		"d=7/default/mwpm":   0xd3f6dfafc536efe6,
		"d=7/tight/astrea":   0x3d136a6c64a25d41,
		"d=7/tight/mwpm":     0x80af7888425acbeb,
	}
	for _, tc := range dists {
		env, err := montecarlo.SharedEnv(tc.d, tc.d, tc.p)
		if err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
		smp := dem.NewSampler(env.Model)
		rng := prng.New(uint64(0xD16E57 + tc.d))
		synd := bitvec.New(env.Graph.N)
		streams := make([][]bitvec.Vec, tc.streams)
		for s := range streams {
			for len(streams[s]) < tc.rounds {
				smp.Sample(rng, synd)
				streams[s] = append(streams[s], rowsOf(env, synd)...)
			}
			streams[s] = streams[s][:tc.rounds]
		}
		for _, wr := range []struct {
			name   string
			rounds int
		}{{"default", 0}, {"tight", SafeGapRounds(env) + 2}} {
			for _, dec := range []string{"astrea", "mwpm"} {
				key := fmt.Sprintf("d=%d/%s/%s", tc.d, wr.name, dec)
				cfg := Config{Env: env, Decoder: dec, WindowRounds: wr.rounds}
				h := uint64(0xcbf29ce484222325)
				var windows, forced int
				for s, rows := range streams {
					commits, _, err := DecodeClosed(cfg, rows)
					if err != nil {
						t.Fatalf("%s stream %d: %v", key, s, err)
					}
					checkPartition(t, commits, uint64(len(rows)))
					for _, c := range commits {
						h = commitDigest(h, c)
						windows++
						if c.Forced {
							forced++
						}
					}
				}
				if forced == 0 {
					t.Fatalf("%s: no forced seam in %d windows — the digest pins nothing approximate", key, windows)
				}
				t.Logf("%s: %d windows, %d forced, digest %#016x", key, windows, forced, h)
				if w, ok := want[key]; !ok || w != h {
					t.Errorf("%s: digest %#016x, want %#016x", key, h, w)
				}
			}
		}
	}
}
