package stream

import (
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// BenchmarkPushRow times the steady state of one stream: sampled d=5,
// p=1e-3 rounds pushed back to back into a warm pipeline with Astrea as
// its decoder, while another goroutine drains the commits. One op is one
// round, so ns/op is what a round costs the pusher, its share of the
// window decodes included.
func BenchmarkPushRow(b *testing.B) {
	env, err := montecarlo.SharedEnv(5, 5, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	smp := dem.NewSampler(env.Model)
	rng := prng.New(0x5eed)
	synd := bitvec.New(env.Graph.N)
	var rows []bitvec.Vec
	for len(rows) < 60000 {
		smp.Sample(rng, synd)
		rows = append(rows, rowsOf(env, synd)...)
	}
	p, err := New(Config{Env: env, Decoder: "astrea"})
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range p.Commits() {
		}
	}()
	for _, row := range rows {
		if err := p.PushRow(row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PushRow(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.Abort()
	<-drained
}
