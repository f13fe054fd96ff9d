// Package montecarlo runs the paper's memory experiments (§3.4): sample
// syndromes under circuit-level noise, decode them with one or more
// decoders, and score logical errors by comparing each decoder's observable
// prediction against the sampled observable flip.
//
// Two estimation modes are provided:
//
//   - Run: direct Monte Carlo over full shots, with the fast DEM sampler.
//     Appropriate whenever the logical error rate is within reach of the
//     shot budget (p ≳ 5·10⁻⁴ at small distances).
//   - RunStratified: the Appendix A.1 estimator (Equation 3) — per-stratum
//     failure probabilities with exactly k injected faults, combined with
//     the binomial occurrence probabilities. This is how the paper itself
//     evaluates d = 11, and how this reproduction reaches logical error
//     rates of 10⁻⁹ and below without a 1024-core cluster.
//
// Work is spread across a goroutine pool; every worker owns a decoder
// instance (decoders are stateful), a deterministic PRNG stream split from
// the experiment seed, and local tallies merged at the end, so results are
// reproducible for a fixed (seed, worker count).
package montecarlo

import (
	"fmt"
	"runtime"
	"sync"

	"astrea/internal/analytic"
	"astrea/internal/bitvec"
	"astrea/internal/circuit"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/prng"
	"astrea/internal/surface"
)

// Env bundles everything built once per (distance, rounds, p) operating
// point: the code, the noisy circuit, its detector error model, and the
// decoding graph with its Global Weight Table. Env is immutable after
// construction and safe to share across goroutines.
type Env struct {
	Distance int
	Rounds   int
	P        float64
	// Basis is the memory-experiment basis, recorded so the environment can
	// be exported as (and round-tripped through) a compiled artifact.
	// Constructors default it to BasisZ; embedders building custom circuits
	// in another basis should set it before exporting.
	Basis surface.Basis

	Code    *surface.Code
	Circuit *circuit.Circuit
	Model   *dem.Model
	Graph   *decodegraph.Graph
	GWT     *decodegraph.GWT
}

// NewEnv builds the simulation environment for a distance-d memory-Z
// experiment with the given number of rounds (the paper always uses d
// rounds) at physical error rate p.
func NewEnv(d, rounds int, p float64) (*Env, error) {
	code, err := surface.New(d)
	if err != nil {
		return nil, err
	}
	cc, err := code.MemoryZ(rounds, p)
	if err != nil {
		return nil, err
	}
	return NewEnvFromCircuit(code, cc, rounds, p)
}

// NewEnvFromCircuit builds an environment around an arbitrary memory
// circuit (a different basis, a non-uniform noise map, an injected-fault
// study). The DEM, decoding graph and GWT are extracted from the circuit's
// actual noise, which is how the paper's §8.2 "reprogram the GWT" flow
// works. p is recorded for reporting and for the stratified estimator's
// binomial weights (only meaningful when the circuit's slots share one
// probability).
func NewEnvFromCircuit(code *surface.Code, cc *circuit.Circuit, rounds int, p float64) (*Env, error) {
	model, err := dem.FromCircuit(cc)
	if err != nil {
		return nil, err
	}
	graph, err := decodegraph.FromModel(model, cc.DetMetas)
	if err != nil {
		return nil, err
	}
	gwt, err := graph.BuildGWT()
	if err != nil {
		return nil, err
	}
	return &Env{
		Distance: code.Distance, Rounds: rounds, P: p,
		Code: code, Circuit: cc, Model: model, Graph: graph, GWT: gwt,
	}, nil
}

// Factory builds one decoder instance per worker.
type Factory func(env *Env) (decoder.Decoder, error)

// DecoderStats aggregates one decoder's results over a run.
type DecoderStats struct {
	Name   string
	Shots  int64
	Errors int64
	// Skipped counts syndromes the decoder declined (e.g. Astrea HW > 10).
	Skipped int64
	// NotRealTime counts decodes that missed the real-time path.
	NotRealTime int64
	// Cycle statistics under the decoder's own hardware timing model; the
	// NonTrivial variants exclude Hamming weights ≤ 2 (the "HW > 2 only"
	// series of Figure 9).
	CycleSum           int64
	CycleMax           int
	NonTrivialShots    int64
	NonTrivialCycleSum int64
}

// LER is the measured logical error rate.
func (s *DecoderStats) LER() float64 {
	if s.Shots == 0 {
		return 0
	}
	return float64(s.Errors) / float64(s.Shots)
}

// LERInterval is the 95% Wilson interval of the LER.
func (s *DecoderStats) LERInterval() (lo, hi float64) {
	return analytic.WilsonInterval(s.Errors, s.Shots)
}

// MeanLatencyNs is the average decode latency at the 250 MHz design clock.
func (s *DecoderStats) MeanLatencyNs() float64 {
	if s.Shots == 0 {
		return 0
	}
	return float64(s.CycleSum) * 4 / float64(s.Shots)
}

// MeanLatencyNonTrivialNs averages only syndromes with HW > 2.
func (s *DecoderStats) MeanLatencyNonTrivialNs() float64 {
	if s.NonTrivialShots == 0 {
		return 0
	}
	return float64(s.NonTrivialCycleSum) * 4 / float64(s.NonTrivialShots)
}

// MaxLatencyNs is the worst observed decode latency.
func (s *DecoderStats) MaxLatencyNs() float64 { return float64(s.CycleMax) * 4 }

// RunConfig parameterises a direct Monte Carlo run.
type RunConfig struct {
	Shots   int64
	Seed    uint64
	Workers int // 0 = GOMAXPROCS
	// MaxHWTrack sizes the Hamming-weight histogram (weights beyond it
	// accumulate in the last bucket). 0 = 64.
	MaxHWTrack int
}

// RunResult is the outcome of a direct run.
type RunResult struct {
	Shots    int64
	ObsFlips int64
	// HWHist[h] counts syndromes of Hamming weight h.
	HWHist []int64
	Stats  []DecoderStats
}

func (c *RunConfig) normalize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxHWTrack <= 0 {
		c.MaxHWTrack = 64
	}
}

// Run performs direct Monte Carlo: cfg.Shots samples, each decoded by every
// factory-built decoder.
func Run(env *Env, cfg RunConfig, factories ...Factory) (*RunResult, error) {
	cfg.normalize()
	if cfg.Shots <= 0 {
		return nil, fmt.Errorf("montecarlo: shots must be positive, got %d", cfg.Shots)
	}

	type local struct {
		res  RunResult
		errs []error
	}
	locals := make([]local, cfg.Workers)
	root := prng.New(cfg.Seed)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		shots := cfg.Shots / int64(cfg.Workers)
		if w < int(cfg.Shots%int64(cfg.Workers)) {
			shots++
		}
		rng := root.Split(uint64(w) + 1)
		wg.Add(1)
		go func(w int, shots int64, rng *prng.Source) {
			defer wg.Done()
			l := &locals[w]
			l.res.HWHist = make([]int64, cfg.MaxHWTrack+1)
			decs := make([]decoder.Decoder, len(factories))
			for i, f := range factories {
				d, err := f(env)
				if err != nil {
					l.errs = append(l.errs, err)
					return
				}
				decs[i] = d
				l.res.Stats = append(l.res.Stats, DecoderStats{Name: d.Name()})
			}
			smp := dem.NewSampler(env.Model)
			syn := bitvec.New(env.Model.NumDetectors)
			for shot := int64(0); shot < shots; shot++ {
				obs := smp.Sample(rng, syn)
				hw := syn.PopCount()
				bucket := hw
				if bucket > cfg.MaxHWTrack {
					bucket = cfg.MaxHWTrack
				}
				l.res.HWHist[bucket]++
				l.res.Shots++
				if obs&1 == 1 {
					l.res.ObsFlips++
				}
				for i, d := range decs {
					st := &l.res.Stats[i]
					r := d.Decode(syn)
					st.Shots++
					if r.ObsPrediction != obs {
						st.Errors++
					}
					if r.Skipped {
						st.Skipped++
					}
					if !r.RealTime {
						st.NotRealTime++
					}
					st.CycleSum += int64(r.Cycles)
					if r.Cycles > st.CycleMax {
						st.CycleMax = r.Cycles
					}
					if hw > 2 {
						st.NonTrivialShots++
						st.NonTrivialCycleSum += int64(r.Cycles)
					}
				}
			}
		}(w, shots, rng)
	}
	wg.Wait()

	out := &RunResult{HWHist: make([]int64, cfg.MaxHWTrack+1)}
	for w := range locals {
		l := &locals[w]
		if len(l.errs) > 0 {
			return nil, l.errs[0]
		}
		out.Shots += l.res.Shots
		out.ObsFlips += l.res.ObsFlips
		for h, c := range l.res.HWHist {
			out.HWHist[h] += c
		}
		for i, st := range l.res.Stats {
			if len(out.Stats) <= i {
				out.Stats = append(out.Stats, DecoderStats{Name: st.Name})
			}
			o := &out.Stats[i]
			o.Shots += st.Shots
			o.Errors += st.Errors
			o.Skipped += st.Skipped
			o.NotRealTime += st.NotRealTime
			o.CycleSum += st.CycleSum
			o.NonTrivialShots += st.NonTrivialShots
			o.NonTrivialCycleSum += st.NonTrivialCycleSum
			if st.CycleMax > o.CycleMax {
				o.CycleMax = st.CycleMax
			}
		}
	}
	return out, nil
}

// StratifiedConfig parameterises the Equation (3) estimator.
type StratifiedConfig struct {
	// MaxK is the largest fault count simulated (the paper uses 20).
	MaxK int
	// ShotsPerK is the Monte Carlo budget per stratum.
	ShotsPerK int64
	Seed      uint64
	Workers   int
}

// StratumStats holds one stratum's tally for one decoder.
type StratumStats struct {
	K      int
	Shots  int64
	Errors int64
}

// Pf is the stratum failure probability estimate.
func (s *StratumStats) Pf() float64 {
	if s.Shots == 0 {
		return 0
	}
	return float64(s.Errors) / float64(s.Shots)
}

// StratifiedResult is the outcome of RunStratified.
type StratifiedResult struct {
	// NumSlots is the number of independent fault locations N; fault counts
	// are Binomial(N, p).
	NumSlots int
	P        float64
	// Strata[d][k] is decoder d's tally at fault count k (k from 1).
	Strata [][]StratumStats
	Names  []string
}

// LER evaluates Equation (3) for decoder index di.
func (r *StratifiedResult) LER(di int) float64 {
	pf := make([]float64, len(r.Strata[di])+1)
	for _, s := range r.Strata[di] {
		pf[s.K] = s.Pf()
	}
	return analytic.StratifiedLER(r.NumSlots, r.P, pf)
}

// RunStratified estimates logical error rates with the Appendix A.1
// method: for each k in 1..MaxK, sample ShotsPerK shots with exactly k
// faults (uniform over fault locations, which all share probability p in
// the paper's noise model), decode, and tally failures.
func RunStratified(env *Env, cfg StratifiedConfig, factories ...Factory) (*StratifiedResult, error) {
	if cfg.MaxK < 1 || cfg.ShotsPerK < 1 {
		return nil, fmt.Errorf("montecarlo: bad stratified config %+v", cfg)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &StratifiedResult{
		NumSlots: len(env.Circuit.Slots()),
		P:        env.P,
		Strata:   make([][]StratumStats, len(factories)),
	}
	type tally struct {
		errors []int64 // [decoder][k-1] flattened per worker
		shots  []int64
		err    error
	}
	locals := make([]tally, workers)
	root := prng.New(cfg.Seed)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shots := cfg.ShotsPerK / int64(workers)
		if w < int(cfg.ShotsPerK%int64(workers)) {
			shots++
		}
		rng := root.Split(uint64(w) + 1)
		wg.Add(1)
		go func(w int, shots int64, rng *prng.Source) {
			defer wg.Done()
			l := &locals[w]
			l.errors = make([]int64, len(factories)*cfg.MaxK)
			l.shots = make([]int64, len(factories)*cfg.MaxK)
			decs := make([]decoder.Decoder, len(factories))
			for i, f := range factories {
				d, err := f(env)
				if err != nil {
					l.err = err
					return
				}
				decs[i] = d
			}
			frame := env.Circuit.NewFrame()
			syn := bitvec.New(len(env.Circuit.Detectors))
			var inj []circuit.Injection
			for k := 1; k <= cfg.MaxK; k++ {
				for shot := int64(0); shot < shots; shot++ {
					inj = env.Circuit.SampleKInjections(rng, k, inj[:0])
					env.Circuit.RunInjected(inj, frame)
					env.Circuit.DetectorEvents(frame, syn)
					obs := env.Circuit.ObservableFlips(frame)
					for i, d := range decs {
						idx := i*cfg.MaxK + k - 1
						l.shots[idx]++
						if d.Decode(syn).ObsPrediction != obs {
							l.errors[idx]++
						}
					}
				}
			}
		}(w, shots, rng)
	}
	wg.Wait()

	for i := range factories {
		res.Strata[i] = make([]StratumStats, cfg.MaxK)
		for k := 1; k <= cfg.MaxK; k++ {
			res.Strata[i][k-1].K = k
		}
	}
	for w := range locals {
		if locals[w].err != nil {
			return nil, locals[w].err
		}
		for i := range factories {
			for k := 1; k <= cfg.MaxK; k++ {
				idx := i*cfg.MaxK + k - 1
				res.Strata[i][k-1].Shots += locals[w].shots[idx]
				res.Strata[i][k-1].Errors += locals[w].errors[idx]
			}
		}
	}
	// Names from a throwaway instance.
	for _, f := range factories {
		d, err := f(env)
		if err != nil {
			return nil, err
		}
		res.Names = append(res.Names, d.Name())
	}
	return res, nil
}
