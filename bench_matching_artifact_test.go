package astrea

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decoder"
	"astrea/internal/mwpm"
	"astrea/internal/sparsemwpm"
)

// matchingBench is the schema of BENCH_matching.json: the committed
// head-to-head of the two exact MWPM engines over the matchingCells grid,
// with bit-identity between the engines enforced on every timed syndrome.
// Speedup is dense time over sparse time, so > 1 means the sparse engine
// won the cell. Regenerate with
//
//	ASTREA_WRITE_BENCH=1 go test -run '^TestMatchingBenchArtifact$' .
//
// The committed numbers tell an honest story: against a warm precomputed
// all-pairs table, the warm-started dense engine wins every stratum at the
// distances this repo serves — exactness forces the sparse engine's
// regions around odd clusters out to their full boundary radius, which is
// exactly the information the table holds precomputed. The sparse engine's
// value is that it needs no such table: matching state is O(E) in the
// decoding graph, independent of the all-pairs closure.
type matchingBench struct {
	// AgreementShots counts timed syndromes cross-checked between the
	// engines (identical prediction, weight bits and pair list);
	// Mismatches must be zero.
	AgreementShots int `json:"agreement_shots"`
	Mismatches     int `json:"mismatches"`

	Cells []matchingBenchCell `json:"cells"`
}

type matchingBenchCell struct {
	D         int     `json:"d"`
	P         float64 `json:"p"`
	LoHW      int     `json:"lo_hw"`
	HiHW      int     `json:"hi_hw"`
	Syndromes int     `json:"syndromes"`
	DenseNs   float64 `json:"dense_ns_per_decode"`
	SparseNs  float64 `json:"sparse_ns_per_decode"`
	// Speedup = DenseNs / SparseNs: the factor by which the sparse engine
	// beats (>1) or trails (<1) the dense baseline on this cell.
	Speedup float64 `json:"speedup"`
}

// TestMatchingBenchArtifact keeps BENCH_matching.json honest: the committed
// file must parse against the schema, cover every served distance with the
// benchmark's own cell grid, record a clean cross-engine agreement run, and
// show the outcome the docs state (the dense engine winning every cell).
// With ASTREA_WRITE_BENCH=1 the test regenerates the file instead.
func TestMatchingBenchArtifact(t *testing.T) {
	const path = "BENCH_matching.json"

	if os.Getenv("ASTREA_WRITE_BENCH") != "" {
		var bench matchingBench
		for _, c := range matchingCells {
			env, pool := matchingPool(t, c, 200)
			dense := mwpm.New(env.GWT)
			sparse := mwpm.NewWithEngine(env.GWT, sparsemwpm.New(env.Graph))

			// Cross-check every pooled syndrome before timing it.
			for _, s := range pool {
				a, b := dense.Decode(s), sparse.Decode(s)
				bench.AgreementShots++
				same := a.ObsPrediction == b.ObsPrediction &&
					math.Float64bits(a.Weight) == math.Float64bits(b.Weight) &&
					len(a.Pairs) == len(b.Pairs)
				if same {
					for i := range a.Pairs {
						if a.Pairs[i] != b.Pairs[i] {
							same = false
							break
						}
					}
				}
				if !same {
					bench.Mismatches++
				}
			}

			// Pick a repetition count putting each engine's timed section
			// near 100ms, then interleave whole passes so drift hits both.
			reps := 1
			if probe := timeDecodes(dense, pool, 1); probe > 0 {
				if r := int((100 * time.Millisecond).Seconds() / probe); r > reps {
					reps = r
				}
				if reps > 400 {
					reps = 400
				}
			}
			var denseSec, sparseSec float64
			for r := 0; r < reps; r++ {
				denseSec += timeDecodes(dense, pool, 1)
				sparseSec += timeDecodes(sparse, pool, 1)
			}
			n := float64(reps * len(pool))
			bench.Cells = append(bench.Cells, matchingBenchCell{
				D: c.D, P: c.P, LoHW: c.LoHW, HiHW: c.HiHW,
				Syndromes: len(pool),
				DenseNs:   denseSec * 1e9 / n,
				SparseNs:  sparseSec * 1e9 / n,
				Speedup:   denseSec / sparseSec,
			})
		}
		if bench.Mismatches != 0 {
			t.Fatalf("engines disagreed on %d of %d syndromes; artifact not written",
				bench.Mismatches, bench.AgreementShots)
		}
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
	var bench matchingBench
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if bench.Mismatches != 0 {
		t.Fatalf("%s records %d cross-engine mismatches; the engines must be bit-identical", path, bench.Mismatches)
	}
	if bench.AgreementShots < 20*len(matchingCells) {
		t.Fatalf("%s records only %d agreement shots across %d cells", path, bench.AgreementShots, len(matchingCells))
	}
	if len(bench.Cells) != len(matchingCells) {
		t.Fatalf("%s holds %d cells; the benchmark grid has %d — regenerate it", path, len(bench.Cells), len(matchingCells))
	}
	seen := map[int]bool{}
	for i, cell := range bench.Cells {
		want := matchingCells[i]
		if cell.D != want.D || cell.P != want.P || cell.LoHW != want.LoHW || cell.HiHW != want.HiHW {
			t.Fatalf("cell %d describes (d=%d p=%g hw %d-%d); the grid has (d=%d p=%g hw %d-%d) — regenerate",
				i, cell.D, cell.P, cell.LoHW, cell.HiHW, want.D, want.P, want.LoHW, want.HiHW)
		}
		if cell.DenseNs <= 0 || cell.SparseNs <= 0 || cell.Syndromes < 20 {
			t.Fatalf("degenerate cell %+v", cell)
		}
		if ratio := cell.DenseNs / cell.SparseNs; math.Abs(ratio-cell.Speedup)/cell.Speedup > 0.05 {
			t.Fatalf("cell %+v: recorded speedup inconsistent with its own latencies", cell)
		}
		seen[cell.D] = true
	}
	for _, d := range []int{3, 5, 7, 9} {
		if !seen[d] {
			t.Fatalf("%s covers no d=%d cell", path, d)
		}
	}
	// The honest headline: with its warm-started solver the dense engine
	// wins every cell, d=3 included. If a regeneration flips a cell, this
	// assertion is the prompt to update the docs that state it.
	for _, cell := range bench.Cells {
		if cell.Speedup >= 1 {
			t.Fatalf("sparse engine won a cell the dense engine is documented to win (%+v); update README/DESIGN", cell)
		}
	}
}

// timeDecodes runs reps passes of the pool through the decoder and returns
// the elapsed wall-clock seconds.
func timeDecodes(dec decoder.Decoder, pool []bitvec.Vec, reps int) float64 {
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range pool {
			dec.Decode(s)
		}
	}
	return time.Since(start).Seconds()
}
