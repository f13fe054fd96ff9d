// Benchmarks regenerating every table and figure of the paper's evaluation
// at a reduced Monte Carlo budget (one bench per table/figure; run the
// cmd/astrea CLI with -budget standard|full for publication-scale numbers).
// Custom metrics attach the scientifically meaningful outputs (logical
// error rates, latencies, probabilities) to the benchmark results, so
// `go test -bench=.` doubles as a smoke reproduction of the whole paper.
package astrea

import (
	"io"
	"testing"

	"astrea/internal/experiments"
)

// benchBudget keeps each iteration in the hundreds of milliseconds.
var benchBudget = experiments.Budget{Shots: 30_000, ShotsPerK: 300, Seed: 1}

func BenchmarkTable1_ResourceCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(3, 5, 7, 9)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_HWProbabilities(b *testing.B) {
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchBudget, 3, 5)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Results[0].Bands(experiments.Table2Bands)[0].Prob, "P(HW=0|d=3)")
	b.ReportMetric(last.Results[0].LER, "LER(d=3,p=1e-4)")
}

func BenchmarkFig3_SoftwareMWPMLatency(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.SoftwareMWPMLatency(5, 1e-3, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
}

func BenchmarkFig4_LERVsDistance(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.LERVsDistance(benchBudget, 3, 5)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LERs[0][1]/last.LERs[0][0], "AFS/MWPM(d=3)")
}

func BenchmarkFig6_HWModelVsObserved(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(3, 1e-3, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Analytic[2], "model-P(H=2)")
	b.ReportMetric(last.Observed[2], "observed-P(H=2)")
}

func BenchmarkTable4_DecoderLERs(b *testing.B) {
	var last *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchBudget, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LERs[0][0], "MWPM-LER(d=3)")
	b.ReportMetric(last.LERs[0][4], "AFS-LER(d=3)")
}

func BenchmarkFig9_AstreaLatency(b *testing.B) {
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.AstreaLatency(benchBudget, 3, 5, 7)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MaxNs[2], "max-ns(d=7)")
	b.ReportMetric(last.MeanNs[2], "mean-ns(d=7)")
}

func BenchmarkTable5_HWTails(b *testing.B) {
	var last *experiments.Table5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Results[0].Bands(experiments.Table5Bands)[2].Prob, "P(HW>10|p=1e-3)")
}

func BenchmarkFig10a_WeightHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WeightHistogram(7, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10b_FilterReduction(b *testing.B) {
	var last *experiments.Fig10bResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.FilterReduction(
			experiments.Budget{Shots: 400_000, ShotsPerK: 100, Seed: 3}, 7, 3e-3, 16)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Reduction, "pair-reduction")
}

func BenchmarkFig12_LERSweepD7(b *testing.B) {
	var last *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.LERSweep(benchBudget, 7, 5e-4, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last.MWPM[1] > 0 {
		b.ReportMetric(last.AstreaG[1]/last.MWPM[1], "AstreaG/MWPM(p=1e-3)")
	}
}

func BenchmarkFig13_WthSweep(b *testing.B) {
	var last *experiments.WthSweepResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.WthSweep(benchBudget, 7, 1e-3, 4, 7)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Relative[0], "relLER(Wth=4)")
	b.ReportMetric(last.Relative[1], "relLER(Wth=7)")
}

func BenchmarkFig14_LERSweepD9(b *testing.B) {
	var last *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.LERSweep(benchBudget, 9, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last.MWPM[0] > 0 {
		b.ReportMetric(last.AstreaG[0]/last.MWPM[0], "AstreaG/MWPM(d=9,p=1e-3)")
	}
}

func BenchmarkTable6_SRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table6(7, 9)
		if res.Rows["Total"][0] == 0 {
			b.Fatal("empty model")
		}
	}
}

func BenchmarkTable7_Bandwidth(b *testing.B) {
	var last *experiments.BandwidthResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Bandwidth(benchBudget, 9, 1e-3, []float64{0, 500})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.RelLER[1], "relLER(500ns-tx)")
}

func BenchmarkTable9_StratifiedLERs(b *testing.B) {
	var last *experiments.Table9Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table9(benchBudget, 7)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MWPM[0], "MWPM-LER(d=7,p=1e-4)")
}

// BenchmarkDecodeThroughput measures raw decode throughput of the two
// real-time decoders on realistic syndromes — the end-to-end software
// latency companion to the hardware cycle model.
func BenchmarkDecodeThroughput(b *testing.B) {
	sys, err := New(7, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		mk   func() (Decoder, error)
	}{
		{"Astrea", func() (Decoder, error) { return sys.Astrea(), nil }},
		{"AstreaG", sys.AstreaG},
		{"MWPM", func() (Decoder, error) { return sys.MWPM(), nil }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			dec, err := mk.mk()
			if err != nil {
				b.Fatal(err)
			}
			src := sys.NewShotSource(1)
			pool := make([]Syndrome, 0, 256)
			for len(pool) < 256 {
				s, _ := src.Next()
				if s.PopCount() > 0 {
					pool = append(pool, s.Clone())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.Decode(pool[i%len(pool)])
			}
		})
	}
}
