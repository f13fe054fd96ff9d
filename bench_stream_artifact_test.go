package astrea

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"testing"
	"time"

	"astrea/internal/compress"
	"astrea/internal/montecarlo"
	"astrea/internal/server"
)

// streamingBench is the schema of BENCH_streaming.json: the committed
// operating-point numbers for the streaming subsystem, with the whole-shot
// decode of the same shots as the baseline. Regenerate with
//
//	ASTREA_WRITE_BENCH=1 go test -run '^TestStreamingBenchArtifact$' .
type streamingBench struct {
	Distance int     `json:"distance"`
	P        float64 `json:"p"`
	Rounds   int     `json:"rounds"`
	Shots    int     `json:"shots"`

	Streaming struct {
		Windows       int     `json:"windows"`
		ForcedCuts    int     `json:"forced_cuts"`
		GapRounds     int     `json:"gap_rounds"`
		WindowRounds  int     `json:"window_rounds"`
		WindowsPerSec float64 `json:"windows_per_sec"`
		RoundsPerSec  float64 `json:"rounds_per_sec"`
		CommitP50Ns   float64 `json:"commit_p50_ns"`
		CommitP95Ns   float64 `json:"commit_p95_ns"`
		CommitP99Ns   float64 `json:"commit_p99_ns"`
	} `json:"streaming"`

	WholeShot struct {
		ShotsPerSec  float64 `json:"shots_per_sec"`
		RoundsPerSec float64 `json:"rounds_per_sec"`
	} `json:"whole_shot"`

	// Resume is the resilience scenario: the same class of round stream
	// pushed over a real socket through a resumable session whose
	// connection is severed at scheduled points, with bit-identity against
	// the uninterrupted local decode enforced (zero mismatches).
	Resume struct {
		Rounds         int     `json:"rounds"`
		Kills          int     `json:"kills"`
		Reconnects     int     `json:"reconnects"`
		ReplayedRounds uint64  `json:"replayed_rounds"`
		RecoveryP50Ns  float64 `json:"recovery_p50_ns"`
		RecoveryP95Ns  float64 `json:"recovery_p95_ns"`
		RecoveryMaxNs  float64 `json:"recovery_max_ns"`
	} `json:"resume"`
}

// TestStreamingBenchArtifact keeps BENCH_streaming.json honest: the
// committed file must parse against the schema, describe the benchmark's
// actual operating point, and carry non-degenerate throughput numbers.
// With ASTREA_WRITE_BENCH=1 the test regenerates the file instead.
func TestStreamingBenchArtifact(t *testing.T) {
	const path = "BENCH_streaming.json"
	const distance, p, shots = 5, 1e-3, 100

	if os.Getenv("ASTREA_WRITE_BENCH") != "" {
		sys, err := New(distance, p)
		if err != nil {
			t.Fatal(err)
		}
		rows := streamBenchRows(sys, 1, shots)

		var bench streamingBench
		bench.Distance, bench.P, bench.Shots, bench.Rounds = distance, p, shots, len(rows)

		const iters = 5
		var sojourns []float64
		start := time.Now()
		for i := 0; i < iters; i++ {
			commits, stats, err := sys.DecodeClosedStream(StreamConfig{Decoder: "astrea"}, rows)
			if err != nil {
				t.Fatal(err)
			}
			bench.Streaming.Windows = int(stats.Windows)
			bench.Streaming.ForcedCuts = int(stats.ForcedCuts)
			bench.Streaming.GapRounds = stats.GapRounds
			bench.Streaming.WindowRounds = stats.WindowRounds
			sojourns = sojourns[:0]
			for _, c := range commits {
				sojourns = append(sojourns, c.SojournNs)
			}
		}
		sec := time.Since(start).Seconds()
		bench.Streaming.WindowsPerSec = float64(iters*bench.Streaming.Windows) / sec
		bench.Streaming.RoundsPerSec = float64(iters*len(rows)) / sec
		sort.Float64s(sojourns)
		bench.Streaming.CommitP50Ns = quantileNs(sojourns, 0.50)
		bench.Streaming.CommitP95Ns = quantileNs(sojourns, 0.95)
		bench.Streaming.CommitP99Ns = quantileNs(sojourns, 0.99)

		dec := sys.Astrea()
		src := sys.NewShotSource(1)
		wholeShots := make([]Syndrome, 0, shots)
		for len(wholeShots) < cap(wholeShots) {
			s, _ := src.Next()
			wholeShots = append(wholeShots, s.Clone())
		}
		roundsPerShot := sys.NumDetectors() / sys.StreamRowWidth()
		start = time.Now()
		for i := 0; i < iters; i++ {
			for _, s := range wholeShots {
				dec.Decode(s)
			}
		}
		sec = time.Since(start).Seconds()
		bench.WholeShot.ShotsPerSec = float64(iters*len(wholeShots)) / sec
		bench.WholeShot.RoundsPerSec = float64(iters*len(wholeShots)*roundsPerShot) / sec

		// Resume scenario: a live daemon, a resumable session, scheduled
		// connection kills, bit-identity enforced by Verify.
		env, err := montecarlo.SharedEnv(distance, distance, p)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Distances: []int{distance},
			P:         p,
			Envs:      map[int]*montecarlo.Env{distance: env},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		rrep, err := server.RunStreamLoad(server.StreamLoadConfig{
			Addr:     ln.Addr().String(),
			Distance: distance,
			P:        p,
			Codec:    compress.IDSparse,
			Rounds:   len(rows),
			Seed:     1,
			Resume:   true,
			Kills:    3,
			Verify:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if rrep.Mismatches != 0 {
			t.Fatalf("resume scenario broke bit-identity: %d mismatched commits", rrep.Mismatches)
		}
		bench.Resume.Rounds = rrep.Rounds
		bench.Resume.Kills = rrep.Kills
		bench.Resume.Reconnects = rrep.Reconnects
		bench.Resume.ReplayedRounds = rrep.ReplayedRounds
		bench.Resume.RecoveryP50Ns = quantileNs(rrep.RecoveryNs, 0.50)
		bench.Resume.RecoveryP95Ns = quantileNs(rrep.RecoveryNs, 0.95)
		bench.Resume.RecoveryMaxNs = quantileNs(rrep.RecoveryNs, 1)

		out, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s", path, out)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("committed benchmark artifact missing: %v (regenerate with ASTREA_WRITE_BENCH=1)", err)
	}
	var bench streamingBench
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if bench.Distance != distance || bench.P != p || bench.Shots != shots {
		t.Fatalf("%s describes (d=%d, p=%g, shots=%d); the benchmark runs (d=%d, p=%g, shots=%d) — regenerate it",
			path, bench.Distance, bench.P, bench.Shots, distance, p, shots)
	}
	if bench.Streaming.Windows <= 0 || bench.Streaming.WindowsPerSec <= 0 || bench.Streaming.RoundsPerSec <= 0 {
		t.Fatalf("degenerate streaming numbers: %+v", bench.Streaming)
	}
	if bench.Streaming.CommitP50Ns <= 0 || bench.Streaming.CommitP99Ns < bench.Streaming.CommitP50Ns {
		t.Fatalf("degenerate commit quantiles: %+v", bench.Streaming)
	}
	if bench.WholeShot.ShotsPerSec <= 0 || bench.WholeShot.RoundsPerSec <= 0 {
		t.Fatalf("degenerate whole-shot baseline: %+v", bench.WholeShot)
	}
	if bench.Streaming.GapRounds <= 0 || bench.Streaming.WindowRounds <= bench.Streaming.GapRounds {
		t.Fatalf("implausible resolved planner parameters: %+v", bench.Streaming)
	}
	if bench.Resume.Rounds <= 0 || bench.Resume.Reconnects <= 0 || bench.Resume.ReplayedRounds == 0 {
		t.Fatalf("degenerate resume scenario (a resilience run with no recoveries measures nothing): %+v", bench.Resume)
	}
	if bench.Resume.RecoveryP50Ns <= 0 || bench.Resume.RecoveryP95Ns < bench.Resume.RecoveryP50Ns ||
		bench.Resume.RecoveryMaxNs < bench.Resume.RecoveryP95Ns {
		t.Fatalf("recovery quantiles are not a CDF: %+v", bench.Resume)
	}
}
