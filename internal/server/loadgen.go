package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/unionfind"
)

// LoadConfig parameterises one load-generation run against a daemon.
type LoadConfig struct {
	// Addr is the daemon's TCP address.
	Addr string
	// Distance and P select the DEM the syndromes are sampled from; they
	// must match a distance the daemon serves (P only shapes the client's
	// sampler — the daemon's GWT is its own).
	Distance int
	P        float64
	// Codec is the compress wire ID to negotiate.
	Codec uint8
	// Shots is the number of syndromes to offer.
	Shots int
	// RatePerSec is the open-loop arrival rate; 0 sends as fast as the
	// socket accepts (closed only by TCP flow control).
	RatePerSec float64
	// DeadlineNs is the per-request real-time budget (0 uses the server
	// default of 1 µs — expect near-total misses over a real network hop,
	// which is precisely the paper's §2 argument).
	DeadlineNs uint64
	// Seed drives the syndrome sampler.
	Seed uint64
	// Verify re-decodes every accepted syndrome locally with the named
	// decoder ("astrea", "mwpm", …; default the server default) and counts
	// observable-prediction mismatches.
	Verify        bool
	VerifyDecoder string

	// env shares a pre-built environment in tests.
	env *montecarlo.Env
}

// LoadReport is the outcome of a load run.
type LoadReport struct {
	Offered  int
	Accepted int // responses that carried a decode result
	Rejected int // backpressure rejections
	Errored  int // per-request server errors

	// Mismatches counts verified responses whose observable prediction
	// disagreed with the local decoder (Verify only). Degraded responses
	// are checked against a local weighted Union-Find decoder — the
	// server's degradation fallback — instead of VerifyDecoder.
	Mismatches int
	// VerifyEngine names the exact-matching engine behind the local
	// verification decoder (decoder.EngineOf; empty without Verify), so a
	// clean report states which engine the daemon's answers were checked
	// against — "mwpm" resolves to the dense engine, "mwpm-sparse" to the
	// sparse one.
	VerifyEngine string

	// OtherGeneration counts responses produced by tables other than the
	// local verifier's (the daemon rotated to a new artifact generation
	// mid-run). They are excluded from Mismatches: the answers come from
	// weights the generator does not hold, so disagreement is expected and
	// benign. Fleet-mode rotation runs (cluster.RunLoad) verify these
	// per generation instead.
	OtherGeneration int

	// Degraded counts responses the server answered with its fast
	// fallback decoder (FlagDegraded).
	Degraded int

	// RTTNs holds one client-observed latency (send → response) per
	// non-rejected response, in arrival order of the responses.
	RTTNs []float64
	// ServerSojournNs holds the server-reported sojourn per accepted
	// response.
	ServerSojournNs []float64
	// DeadlineMisses counts server-flagged misses among accepted responses.
	DeadlineMisses int

	ElapsedSec      float64
	OfferedPerSec   float64
	AchievedPerSec  float64
	MaxRetryAfterNs uint64
}

// RunLoad samples DEM syndromes and drives them through the client path at
// the configured arrival rate: a sender goroutine paces Send calls while
// the caller's goroutine drains responses, so queueing happens at the
// daemon, not in the generator.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Shots <= 0 {
		cfg.Shots = 1000
	}
	if cfg.Distance == 0 {
		cfg.Distance = 5
	}
	if cfg.P <= 0 {
		cfg.P = 1e-3
	}
	env := cfg.env
	if env == nil {
		var err error
		env, err = montecarlo.SharedEnv(cfg.Distance, cfg.Distance, cfg.P)
		if err != nil {
			return nil, err
		}
	}

	// Offer FeatureRotation so every answer carries the fingerprint of the
	// tables that produced it: a daemon hot-swapped to a new artifact
	// generation mid-run stays distinguishable from a wrong answer.
	client, err := DialOptions(cfg.Addr, cfg.Distance, cfg.Codec, ClientOptions{Features: FeatureRotation})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if client.NumDetectors() != env.Model.NumDetectors {
		return nil, fmt.Errorf("server: daemon syndrome length %d != local model %d (mismatched noise model?)",
			client.NumDetectors(), env.Model.NumDetectors)
	}

	localFP := uint64(decodegraph.FingerprintOf(env.Model, env.GWT))
	var local, localUF decoder.Decoder
	if cfg.Verify {
		name := cfg.VerifyDecoder
		if name == "" {
			name = "astrea"
		}
		factory, err := FactoryFor(name)
		if err != nil {
			return nil, err
		}
		if local, err = factory(env); err != nil {
			return nil, err
		}
		// Degraded responses were decoded by the server's weighted
		// Union-Find fallback; verify them against the same algorithm.
		localUF = unionfind.New(env.Graph, true)
	}

	// Pre-sample every syndrome so pacing measures the network and daemon,
	// not the sampler; keep local predictions for verification.
	rng := prng.New(cfg.Seed)
	smp := dem.NewSampler(env.Model)
	syndromes := make([]bitvec.Vec, cfg.Shots)
	expected := make([]uint64, cfg.Shots)
	expectedUF := make([]uint64, cfg.Shots)
	buf := bitvec.New(env.Model.NumDetectors)
	for i := 0; i < cfg.Shots; i++ {
		smp.Sample(rng, buf)
		syndromes[i] = buf.Clone()
		if local != nil {
			expected[i] = local.Decode(buf).ObsPrediction
			expectedUF[i] = localUF.Decode(buf).ObsPrediction
		}
	}

	rep := &LoadReport{Offered: cfg.Shots}
	if local != nil {
		rep.VerifyEngine = decoder.EngineOf(local)
	}
	// Send timestamps are start-relative nanoseconds stored atomically: the
	// sender and receiver goroutines synchronise only through the daemon, so
	// plain slice elements would (correctly) trip the race detector.
	sendAtNs := make([]int64, cfg.Shots)
	sendErr := make(chan error, 1)
	// The sender is tracked so an early receive-side error cannot leave it
	// pacing into a connection the caller is about to close: stop is
	// closed (and the goroutine joined) on every return path.
	var sendWG sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		sendWG.Wait()
	}()
	start := time.Now()
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		var gap time.Duration
		if cfg.RatePerSec > 0 {
			gap = time.Duration(float64(time.Second) / cfg.RatePerSec)
		}
		for i := 0; i < cfg.Shots; i++ {
			if gap > 0 {
				target := start.Add(time.Duration(i) * gap)
				if d := time.Until(target); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-stop:
						t.Stop()
						return
					case <-t.C:
					}
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
			}
			atomic.StoreInt64(&sendAtNs[i], time.Since(start).Nanoseconds())
			if err := client.Send(uint64(i), cfg.DeadlineNs, syndromes[i]); err != nil {
				sendErr <- fmt.Errorf("server: send %d: %w", i, err)
				return
			}
		}
		sendErr <- nil
	}()

	for got := 0; got < cfg.Shots; got++ {
		resp, err := client.Recv()
		if err != nil {
			return nil, fmt.Errorf("server: recv after %d responses: %w", got, err)
		}
		nowNs := time.Since(start).Nanoseconds()
		if resp.Seq >= uint64(cfg.Shots) {
			return nil, fmt.Errorf("server: response for unknown seq %d", resp.Seq)
		}
		switch {
		case resp.Rejected:
			rep.Rejected++
			if resp.RetryAfterNs > rep.MaxRetryAfterNs {
				rep.MaxRetryAfterNs = resp.RetryAfterNs
			}
		case resp.Err != "":
			rep.Errored++
		default:
			rep.Accepted++
			rep.RTTNs = append(rep.RTTNs, float64(nowNs-atomic.LoadInt64(&sendAtNs[resp.Seq])))
			rep.ServerSojournNs = append(rep.ServerSojournNs, float64(resp.SojournNs))
			if resp.DeadlineMiss {
				rep.DeadlineMisses++
			}
			want := expected
			if resp.Degraded {
				rep.Degraded++
				want = expectedUF
			}
			if resp.HaveFingerprint && resp.Fingerprint != localFP {
				rep.OtherGeneration++
			} else if local != nil && resp.ObsMask != want[resp.Seq] {
				rep.Mismatches++
			}
		}
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}

	rep.ElapsedSec = time.Since(start).Seconds()
	if rep.ElapsedSec > 0 {
		rep.OfferedPerSec = float64(rep.Offered) / rep.ElapsedSec
		rep.AchievedPerSec = float64(rep.Accepted) / rep.ElapsedSec
	}
	return rep, nil
}
