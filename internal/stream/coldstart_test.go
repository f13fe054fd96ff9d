package stream

import (
	"fmt"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// BenchmarkPipelineColdStart times what a stream pays before its steady
// state: New plus a fixed 12 000-round prefix at the default window
// parameters, with the shared environment cache flushed before every
// iteration, so each one builds its window environment cold, as the first
// stream of a fresh process does.
func BenchmarkPipelineColdStart(b *testing.B) {
	const prefix = 12000
	for _, d := range []int{5, 7} {
		for _, pe := range []float64{1e-4, 1e-3, 3e-3} {
			b.Run(fmt.Sprintf("d=%d/p=%g", d, pe), func(b *testing.B) {
				base, err := montecarlo.NewEnv(d, d, pe)
				if err != nil {
					b.Fatal(err)
				}
				smp := dem.NewSampler(base.Model)
				rng := prng.New(uint64(0xC01D<<8 | d))
				synd := bitvec.New(base.Graph.N)
				var rows []bitvec.Vec
				for len(rows) < prefix {
					smp.Sample(rng, synd)
					rows = append(rows, rowsOf(base, synd)...)
				}
				rows = rows[:prefix]
				cfg := Config{Env: base}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					montecarlo.SetSharedEnvBounds(1, 1)
					montecarlo.SetSharedEnvBounds(montecarlo.DefaultEnvCacheEntries, montecarlo.DefaultEnvCacheBytes)
					b.StartTimer()
					if _, _, err := DecodeClosed(cfg, rows); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
