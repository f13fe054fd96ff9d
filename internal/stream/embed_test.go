package stream

import (
	"fmt"
	"math"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/dem"
	"astrea/internal/experiments"
	"astrea/internal/leakcheck"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// sizeClassWindowEnv is the embedding the one-environment rule replaced,
// kept as an oracle: each window's padded height is rounded up to a multiple
// of sizeClass rows and resolved as its own shared environment. A closed
// bottom sits at offset 0, a closed top ends on the last row (absorbing the
// rounding slack below the window), and a both-closed window gets its exact
// height.
func sizeClassWindowEnv(base *montecarlo.Env, h, pad, sizeClass int, closedBottom, closedTop bool) (*montecarlo.Env, int, error) {
	padBottom, padTop := pad, pad
	if closedBottom {
		padBottom = 0
	}
	if closedTop {
		padTop = 0
	}
	detRows := h + padBottom + padTop
	if !(closedBottom && closedTop) {
		if rem := detRows % sizeClass; rem != 0 {
			detRows += sizeClass - rem
		}
	}
	offset := padBottom
	if closedTop {
		offset = detRows - h
	}
	env, err := envOfRows(base, detRows)
	return env, offset, err
}

// decodeClosedWith is DecodeClosed with the window placement optionally
// swapped for the size-class oracle.
func decodeClosedWith(t *testing.T, cfg Config, rows []bitvec.Vec, oracle bool) []Commit {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oracle {
		base, pad := p.cfg.Env, p.cfg.PadRounds
		p.place = func(h int, closedBottom, closedTop bool) (*montecarlo.Env, int, error) {
			return sizeClassWindowEnv(base, h, pad, 8, closedBottom, closedTop)
		}
	}
	done := make(chan []Commit)
	go func() {
		var commits []Commit
		for c := range p.Commits() {
			commits = append(commits, c)
		}
		done <- commits
	}()
	for _, r := range rows {
		if err := p.PushRow(r); err != nil {
			p.Abort()
			<-done
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		p.Abort()
		<-done
		t.Fatal(err)
	}
	commits := <-done
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return commits
}

// sameCommits fails unless two commit streams agree commit by commit on
// every decoded field, weights to the bit.
func sameCommits(t *testing.T, key string, got, want []Commit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d commits, oracle %d", key, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		same := g.WindowSeq == w.WindowSeq && g.FirstRow == w.FirstRow && g.RowCount == w.RowCount &&
			g.ObsMask == w.ObsMask && math.Float64bits(g.Weight) == math.Float64bits(w.Weight) &&
			g.Forced == w.Forced && g.Fallback == w.Fallback && len(g.Carry) == len(w.Carry)
		for k := 0; same && k < len(g.Carry); k++ {
			same = g.Carry[k] == w.Carry[k]
		}
		if !same {
			t.Fatalf("%s: commit %d diverged from the size-class oracle:\n got %+v\nwant %+v", key, i, g, w)
		}
	}
}

// TestWindowEmbeddingDifferential checks that embedding every window in the
// stream's one WindowRounds+2·PadRounds environment commits exactly what the
// size-class embedding committed: d ∈ {3, 5, 7}, p ∈ {1e-3, 3e-3, 8e-3}, at
// the default and the tightest window cap, for a decoder that falls back
// (astrea) and one that does not (mwpm), plus a pipeline resumed from a
// forced seam.
func TestWindowEmbeddingDifferential(t *testing.T) {
	leakcheck.Check(t)
	rounds := map[int]int{3: 400, 5: 240, 7: 160}
	if testing.Short() {
		rounds = map[int]int{3: 160, 5: 90, 7: 60}
	}
	var forced, resumed int
	for _, d := range []int{3, 5, 7} {
		for _, pe := range []float64{1e-3, 3e-3, 8e-3} {
			env, err := montecarlo.SharedEnv(d, d, pe)
			if err != nil {
				t.Fatalf("d=%d p=%g: %v", d, pe, err)
			}
			smp := dem.NewSampler(env.Model)
			rng := prng.New(uint64(0xE3BED<<8 | d))
			synd := bitvec.New(env.Graph.N)
			var rows []bitvec.Vec
			for len(rows) < rounds[d] {
				smp.Sample(rng, synd)
				rows = append(rows, rowsOf(env, synd)...)
			}
			rows = rows[:rounds[d]]
			for _, wr := range []struct {
				name   string
				rounds int
			}{{"default", 0}, {"tight", SafeGapRounds(env) + 2}} {
				for _, dec := range []string{"astrea", "mwpm"} {
					key := fmt.Sprintf("d=%d/p=%g/%s/%s", d, pe, wr.name, dec)
					cfg := Config{Env: env, Decoder: dec, WindowRounds: wr.rounds}
					got := decodeClosedWith(t, cfg, rows, false)
					sameCommits(t, key, got, decodeClosedWith(t, cfg, rows, true))
					checkPartition(t, got, uint64(len(rows)))
					for j, c := range got {
						if !c.Forced {
							continue
						}
						forced++
						if resumed > 0 || j+1 == len(got) {
							continue
						}
						// Resume once, from the first forced seam.
						rcfg := cfg
						rcfg.StartRow = c.FirstRow + uint64(c.RowCount)
						rcfg.StartSeq = c.WindowSeq + 1
						rcfg.CarrySeam, rcfg.Carry = c.CarryRows, c.Carry
						tail := rows[rcfg.StartRow:]
						rgot := decodeClosedWith(t, rcfg, tail, false)
						sameCommits(t, key+"/resumed", rgot, decodeClosedWith(t, rcfg, tail, true))
						sameCommits(t, key+"/resumed-vs-uninterrupted", rgot, got[j+1:])
						resumed++
					}
				}
			}
		}
	}
	if forced == 0 || resumed == 0 {
		t.Fatalf("%d forced seams, %d resumed pipelines: the differential pins nothing approximate", forced, resumed)
	}
	t.Logf("%d forced seams, all bit-identical to the size-class oracle", forced)
}

// burstyRows is a seeded stream of defect bursts and quiet runs, each
// 1–12 rounds long.
func burstyRows(width, total int, seed uint64) []bitvec.Vec {
	rng := prng.New(seed)
	rows := make([]bitvec.Vec, 0, total)
	for len(rows) < total {
		burst, quiet := 1+rng.Intn(12), rng.Intn(13)
		for i := 0; i < burst+quiet && len(rows) < total; i++ {
			row := bitvec.New(width)
			if i < burst {
				row.Set(rng.Intn(width))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestWindowsNeverExceedCap drives seams so tall that a clean cut at the
// length cap would still land inside the carried prefix. The cut must not
// wait past WindowRounds for the prefix to clear: every window has to fit
// the stream's environment, or its decode fails. The same tall-pad
// configurations must keep closed-stream ≡ whole-shot on sampled streams:
// every shot the planner cuts only at quiet gaps commits the whole-shot
// correction and weight. (A carried prefix exists only after a forced cut,
// so the cut at the cap right after it is checked for the height, not
// against the whole shot.)
func TestWindowsNeverExceedCap(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const total, p = 21, 1e-3
	whole, err := montecarlo.SharedEnv(3, total-1, p)
	if err != nil {
		t.Fatal(err)
	}
	mwpm, err := experiments.FactoryFor("mwpm")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mwpm(whole)
	if err != nil {
		t.Fatal(err)
	}
	// A window of GapRounds+2 forces a cut on almost every defect past the
	// stream's first rows, so only about one shot in twelve cuts cleanly.
	const shots = 600
	for _, tc := range []struct{ gap, window, pad int }{{4, 6, 5}, {6, 8, 7}, {8, 10, 9}, {10, 12, 11}} {
		cfg := Config{Env: env, Decoder: "mwpm", GapRounds: tc.gap, WindowRounds: tc.window, PadRounds: tc.pad}
		for seed := uint64(1); seed <= 8; seed++ {
			rows := burstyRows(RowWidth(env), 1500, seed)
			commits, stats, err := DecodeClosed(cfg, rows)
			if err != nil {
				t.Fatalf("%+v seed %d: %v", tc, seed, err)
			}
			checkPartition(t, commits, uint64(len(rows)))
			if stats.MaxWindowRows > tc.window {
				t.Fatalf("%+v seed %d: a window of %d rounds, cap %d", tc, seed, stats.MaxWindowRows, tc.window)
			}
		}

		cfg.Env = whole
		smp := dem.NewSampler(whole.Model)
		rng := prng.New(uint64(0xCA9<<8 | tc.pad))
		synd := bitvec.New(whole.Graph.N)
		split := 0
		for shot := 0; shot < shots; shot++ {
			smp.Sample(rng, synd)
			_, stats, err := DecodeClosed(cfg, rowsOf(whole, synd))
			if err != nil {
				t.Fatalf("%+v shot %d: %v", tc, shot, err)
			}
			if stats.ForcedCuts != 0 {
				continue // forced seams are approximate by design
			}
			want := ref.Decode(synd)
			if stats.ObsMask != want.ObsPrediction || math.Abs(stats.Weight-want.Weight) > 1e-6*(1+math.Abs(want.Weight)) {
				t.Fatalf("%+v shot %d: windowed obs %#x weight %v, whole-shot obs %#x weight %v (%d windows)",
					tc, shot, stats.ObsMask, stats.Weight, want.ObsPrediction, want.Weight, stats.Windows)
			}
			if stats.Windows > 1 && stats.Defects > 0 {
				split++
			}
		}
		if split < 10 {
			t.Fatalf("%+v: only %d of %d shots split into windows with defects and no forced cut — the equivalence check is vacuous", tc, split, shots)
		}
	}
}
