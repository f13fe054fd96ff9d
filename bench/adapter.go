// The one seam between the benchmark and the program under test: every call
// into astrea/internal/** is made from this file, so an API-changing PR has
// exactly one file to reconcile and cannot quietly change what is measured.
// Drivers, statistics, spans and JSON use only the names declared here.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/hwmodel"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/realtime"
	"astrea/internal/server"
	"astrea/internal/stream"
	"astrea/internal/surface"
)

// Aliases, not wrappers: the timed loops call the program's own methods with
// no benchmark frame in between.
type (
	Syndrome   = bitvec.Vec
	Decoder    = decoder.Decoder
	Result     = decoder.Result
	Env        = montecarlo.Env
	Client     = server.Client
	Response   = server.Response
	WireStream = server.Stream
	StreamAck  = server.StreamOpenAck
	Pipeline   = stream.Pipeline
	Commit     = stream.Commit
)

// Commit flags on the wire, re-exported for the stream driver.
const (
	wireFlagDeadlineMiss = server.FlagDeadlineMiss
	wireFlagForcedSeam   = server.FlagForcedSeam
	wireFlagDegraded     = server.FlagDegraded
)

// buildEnv is what a library user pays before the first decode: circuit →
// DEM → decoding graph → Global Weight Table, d rounds at distance d.
func buildEnv(d int, p float64) (*Env, error) { return montecarlo.NewEnv(d, d, p) }

// newDecoder builds the decoder the service would run under that name, so a
// change of the service's default engine shows without touching the benchmark.
func newDecoder(env *Env, name string) (Decoder, error) {
	f, err := server.FactoryFor(name)
	if err != nil {
		return nil, err
	}
	return f(env)
}

// validMatching applies the program's own structural check to a result.
func validMatching(s Syndrome, r Result) bool {
	ok, _ := decoder.Validate(s, r)
	return ok
}

// modelLatencyNs is the paper's cycle model (Fig 9) for a result's cycles.
func modelLatencyNs(r Result) float64 { return hwmodel.LatencyNs(r.Cycles) }

// sampleSyndromes draws n syndromes with Hamming weight in [minHW, maxHW]
// from the environment's detector error model (rejection sampling; pass
// 0, 1<<30 for the natural distribution).
func sampleSyndromes(env *Env, seed uint64, n, minHW, maxHW int) ([]Syndrome, error) {
	rng := prng.New(seed)
	smp := dem.NewSampler(env.Model)
	buf := bitvec.New(env.Model.NumDetectors)
	out := make([]Syndrome, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 2000*n {
			return nil, fmt.Errorf("sampling HW %d..%d at d=%d p=%g: %d of %d after %d draws", minHW, maxHW, env.Distance, env.P, len(out), n, tries)
		}
		smp.Sample(rng, buf)
		if hw := buf.PopCount(); hw >= minHW && hw <= maxHW {
			out = append(out, buf.Clone())
		}
	}
	return out, nil
}

// sampleNs is the sampler's cost per shot (dem.sample_ns).
func sampleNs(env *Env, seed uint64, n int) float64 {
	rng := prng.New(seed)
	smp := dem.NewSampler(env.Model)
	buf := bitvec.New(env.Model.NumDetectors)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		smp.Sample(rng, buf)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// splitRows cuts whole-shot syndromes into per-round stream rows.
func splitRows(env *Env, shots []Syndrome) []Syndrome {
	width := stream.RowWidth(env)
	per := env.Graph.N / width
	rows := make([]Syndrome, 0, len(shots)*per)
	for _, s := range shots {
		for r := 0; r < per; r++ {
			row := bitvec.New(width)
			for k := 0; k < width; k++ {
				if s.Get(r*width + k) {
					row.Set(k)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// flushSharedEnvs empties the process-wide environment cache so a repeated
// set-up pays the lazy window-environment build again, as a fresh process would.
func flushSharedEnvs() {
	montecarlo.SetSharedEnvBounds(1, 1)
	montecarlo.SetSharedEnvBounds(montecarlo.DefaultEnvCacheEntries, montecarlo.DefaultEnvCacheBytes)
}

// Service is an in-process decode daemon on a loopback listener.
type Service struct {
	srv  *server.Server
	addr string
	done chan error
	d    int
}

// ServiceCounters is the part of the daemon's snapshot the benchmark reads.
type ServiceCounters struct {
	Offered, Accepted, Rejected, Completed, Degraded, Batches, BytesIn int64
	MeanBatch                                                          float64
}

// startService starts the daemon with every program-side knob at its default:
// only distance, p, decoder name and the pre-built environment are set.
func startService(env *Env, decoderName string) (*Service, error) {
	srv, err := server.New(server.Config{
		Distances: []int{env.Distance},
		P:         env.P,
		Decoder:   decoderName,
		Envs:      map[int]*Env{env.Distance: env},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	s := &Service{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1), d: env.Distance}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// dial opens a decode connection with the sparse codec (the default one).
func (s *Service) dial() (*Client, error) {
	return server.Dial(s.addr, s.d, compress.IDSparse)
}

// dialStream opens a connection able to carry a checksummed streaming session.
func (s *Service) dialStream() (*Client, error) {
	return server.DialOptions(s.addr, s.d, compress.IDSparse, server.ClientOptions{
		Features: server.FeatureStream | server.FeatureChecksum,
	})
}

// openStream negotiates a streaming session with every option left to the server.
func openStream(c *Client) (*WireStream, error) { return c.OpenStream(server.StreamOptions{}) }

func (s *Service) counters() ServiceCounters {
	n := s.srv.Snapshot()
	return ServiceCounters{
		Offered: n.Offered, Accepted: n.Accepted, Rejected: n.Rejected, Completed: n.Completed,
		Degraded: n.Degraded, Batches: n.Batches, BytesIn: n.BytesIn, MeanBatch: n.MeanBatch,
	}
}

// close stops the daemon and waits for its accept loop, connection handlers
// and workers to exit.
func (s *Service) close() error {
	err := s.srv.Close()
	return errors.Join(err, <-s.done)
}

// newPipeline starts an in-process streaming pipeline, all defaults.
func newPipeline(env *Env, decoderName string) (*Pipeline, error) {
	return stream.New(stream.Config{Env: env, Decoder: decoderName})
}

// newPipelineAt starts a local pipeline at server-resolved window parameters
// (the reference the wire session is checked against).
func newPipelineAt(env *Env, decoderName string, a StreamAck) (*Pipeline, error) {
	return stream.New(stream.Config{
		Env: env, Decoder: decoderName,
		WindowRounds: int(a.WindowRounds), GapRounds: int(a.GapRounds), PadRounds: int(a.PadRounds),
		RowBudgetNs: float64(a.RowBudgetNs), MaxInflight: int(a.MaxInflight),
	})
}

// buildStages times each stage of the environment build separately; the
// stages are the ones montecarlo.NewEnv runs.
type buildStages struct {
	CircuitMs, DemMs, GraphMs, GwtMs float64
	GwtBytes                         int
}

func timeBuildStages(d int, p float64) (buildStages, error) {
	var b buildStages
	ms := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
	t := time.Now()
	code, err := surface.New(d)
	if err != nil {
		return b, err
	}
	cc, err := code.MemoryZ(d, p)
	if err != nil {
		return b, err
	}
	b.CircuitMs = ms(t)
	t = time.Now()
	model, err := dem.FromCircuit(cc)
	if err != nil {
		return b, err
	}
	b.DemMs = ms(t)
	t = time.Now()
	graph, err := decodegraph.FromModel(model, cc.DetMetas)
	if err != nil {
		return b, err
	}
	b.GraphMs = ms(t)
	t = time.Now()
	gwt, err := graph.BuildGWT()
	if err != nil {
		return b, err
	}
	b.GwtMs = ms(t)
	b.GwtBytes = gwt.SizeBytes()
	return b, nil
}

// artifactProbe times the alternative start-up path: compile an .astc
// bundle, write it under dir, read it back and hydrate an environment.
func artifactProbe(d int, p float64, dir string) (compileMs, size, loadMs float64, err error) {
	t := time.Now()
	a, err := artifact.Compile(d, d, p, surface.BasisZ)
	if err != nil {
		return 0, 0, 0, err
	}
	compileMs = float64(time.Since(t).Nanoseconds()) / 1e6
	size = float64(len(a.Encode()))
	path := filepath.Join(dir, fmt.Sprintf("probe-d%d.astc", d))
	if err := a.WriteFile(path); err != nil {
		return 0, 0, 0, err
	}
	t = time.Now()
	b, err := artifact.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := montecarlo.NewEnvFromArtifact(b); err != nil {
		return 0, 0, 0, err
	}
	loadMs = float64(time.Since(t).Nanoseconds()) / 1e6
	return compileMs, size, loadMs, nil
}

// codecProbe pushes syndromes through the sparse codec alone.
func codecProbe(syn []Syndrome) (encNs, decNs, bytesPer float64, err error) {
	var c compress.Sparse
	bufs := make([][]byte, len(syn))
	t := time.Now()
	total := 0
	for i, s := range syn {
		bufs[i] = c.Encode(s, nil)
		total += len(bufs[i])
	}
	encNs = float64(time.Since(t).Nanoseconds()) / float64(len(syn))
	out := bitvec.New(syn[0].Len())
	t = time.Now()
	for _, b := range bufs {
		if _, err := c.Decode(b, out); err != nil {
			return 0, 0, 0, err
		}
	}
	decNs = float64(time.Since(t).Nanoseconds()) / float64(len(syn))
	return encNs, decNs, float64(total) / float64(len(syn)), nil
}

// wireProbe pushes decode requests and results through the frame layer
// alone, against a bytes.Buffer.
type wireCosts struct{ ReqEncNs, ReqParseNs, ResEncNs, ResParseNs float64 }

func wireProbe(syn []Syndrome) (wireCosts, error) {
	var c compress.Sparse
	var w wireCosts
	n := float64(len(syn))
	payloads := make([][]byte, len(syn))
	for i, s := range syn {
		payloads[i] = c.Encode(s, nil)
	}
	var buf bytes.Buffer
	t := time.Now()
	for i, p := range payloads {
		req := server.DecodeRequest{Seq: uint64(i), DeadlineNs: 50e6, Payload: p}
		if err := server.WriteFrame(&buf, server.FrameDecode, req.AppendTo(nil)); err != nil {
			return w, err
		}
	}
	w.ReqEncNs = float64(time.Since(t).Nanoseconds()) / n
	t = time.Now()
	for range payloads {
		ft, b, err := server.ReadFrame(&buf, server.DefaultMaxFrame)
		if err != nil || ft != server.FrameDecode {
			return w, fmt.Errorf("wire probe: request frame type %d: %w", ft, err)
		}
		if _, err := server.ParseDecodeRequest(b); err != nil {
			return w, err
		}
	}
	w.ReqParseNs = float64(time.Since(t).Nanoseconds()) / n
	buf.Reset()
	t = time.Now()
	for i := range payloads {
		res := server.ResultFrame{Seq: uint64(i), ObsMask: uint64(i & 1), WeightMilli: 1234, SojournNs: 5678}
		if err := server.WriteFrame(&buf, server.FrameResult, res.AppendTo(nil)); err != nil {
			return w, err
		}
	}
	w.ResEncNs = float64(time.Since(t).Nanoseconds()) / n
	t = time.Now()
	for range payloads {
		ft, b, err := server.ReadFrame(&buf, server.DefaultMaxFrame)
		if err != nil || ft != server.FrameResult {
			return w, fmt.Errorf("wire probe: result frame type %d: %w", ft, err)
		}
		if _, err := server.ParseResultFrame(b); err != nil {
			return w, err
		}
	}
	w.ResParseNs = float64(time.Since(t).Nanoseconds()) / n
	return w, nil
}

// histAddNs is the cost of one realtime.Histogram.Add, the daemon's
// per-request latency accounting.
func histAddNs(n int) float64 {
	h := realtime.NewHistogram()
	t := time.Now()
	for i := 0; i < n; i++ {
		h.Add(float64(100 + i&1023))
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// monteCarloShotsPerS runs the Monte Carlo harness with the named decoder at
// Workers = GOMAXPROCS and reports shots per second.
func monteCarloShotsPerS(env *Env, decoderName string, seed uint64, shots int64) (float64, error) {
	f, err := server.FactoryFor(decoderName)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if _, err := montecarlo.Run(env, montecarlo.RunConfig{Shots: shots, Seed: seed}, f); err != nil {
		return 0, err
	}
	return float64(shots) / time.Since(t).Seconds(), nil
}
