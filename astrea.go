// Package astrea is a from-scratch Go reproduction of "Astrea: Accurate
// Quantum Error-Decoding via Practical Minimum-Weight Perfect-Matching"
// (Vittal, Das, Qureshi — ISCA 2023).
//
// It bundles every system the paper builds on: a rotated-surface-code
// circuit generator, a Pauli-frame stabilizer simulator (the Stim
// replacement), detector-error-model extraction, the weighted decoding
// graph with its Global Weight Table, an exact blossom MWPM baseline, the
// Astrea and Astrea-G real-time decoders, and the Union-Find, LILLIPUT and
// Clique baselines — plus a Monte Carlo harness that regenerates every
// table and figure of the paper's evaluation.
//
// The quickest path through the API:
//
//	sys, _ := astrea.New(5, 1e-3)        // distance-5 code at p = 10⁻³
//	dec := sys.Astrea()                  // the paper's real-time decoder
//	src := sys.NewShotSource(42)         // reproducible noisy shots
//	syndrome, obs := src.Next()
//	res := dec.Decode(syndrome)
//	logicalError := res.ObsPrediction != obs
//
// For full experiments, see the internal/experiments package via the
// cmd/astrea binary, or use EstimateLER / EstimateLERStratified here.
package astrea

import (
	"fmt"

	"astrea/internal/artifact"
	"astrea/internal/astrea"
	"astrea/internal/astreag"
	"astrea/internal/bitvec"
	"astrea/internal/clique"
	"astrea/internal/compress"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/experiments"
	"astrea/internal/hwmodel"
	"astrea/internal/lilliput"
	"astrea/internal/montecarlo"
	"astrea/internal/mwpm"
	"astrea/internal/prng"
	"astrea/internal/server"
	"astrea/internal/stream"
	"astrea/internal/surface"
	"astrea/internal/unionfind"
)

// Decoder is the interface every decoder implements; see Result for how
// decodes are scored.
type Decoder = decoder.Decoder

// Result is the outcome of decoding one syndrome.
type Result = decoder.Result

// Syndrome is a detector-event bit vector (one bit per detector).
type Syndrome = bitvec.Vec

// Budget scales experiment effort; see the presets QuickBudget,
// StandardBudget and FullBudget.
type Budget = experiments.Budget

// AstreaGConfig configures the Astrea-G pipeline (fetch width F, queue
// entries E, weight threshold W_th, cycle budget).
type AstreaGConfig = hwmodel.AstreaGConfig

// Stats aggregates a decoder's Monte Carlo results.
type Stats = montecarlo.DecoderStats

// Experiment budgets.
var (
	QuickBudget    = experiments.Quick
	StandardBudget = experiments.Standard
	FullBudget     = experiments.Full
)

// Boundary is the partner index used in Result.Pairs for boundary matches.
const Boundary = decoder.Boundary

// System is a fully built decoding stack for one operating point: the
// distance-d rotated surface code, its d-round memory-Z experiment circuit
// under the paper's noise model at physical error rate p, the extracted
// detector error model, and the Global Weight Table. Systems are immutable
// and safe to share; the decoders they mint are single-goroutine objects.
type System struct {
	env *montecarlo.Env
}

// New builds the decoding stack for a distance-d code (d odd, ≥ 3) at
// physical error rate p, using d syndrome rounds as the paper does.
func New(distance int, p float64) (*System, error) {
	env, err := montecarlo.SharedEnv(distance, distance, p)
	if err != nil {
		return nil, err
	}
	return &System{env: env}, nil
}

// Basis selects a memory experiment type for NewCustom.
type Basis = surface.Basis

// Memory experiment bases.
const (
	BasisZ = surface.BasisZ
	BasisX = surface.BasisX
)

// NoiseMap assigns per-qubit (and optionally per-round) error strengths;
// see the surface package for field semantics. Decoders built from a
// custom system use a Global Weight Table programmed from the map's true
// rates — the §8.2 reprogramming flow.
type NoiseMap = surface.NoiseMap

// NewCustom builds a decoding stack for an arbitrary memory experiment:
// either basis, any round count, and a (possibly non-uniform, possibly
// drifting) noise map. The reported physical error rate is nm.Base.
func NewCustom(distance, rounds int, basis Basis, nm NoiseMap) (*System, error) {
	code, err := surface.New(distance)
	if err != nil {
		return nil, err
	}
	cc, err := code.Memory(basis, rounds, nm)
	if err != nil {
		return nil, err
	}
	env, err := montecarlo.NewEnvFromCircuit(code, cc, rounds, nm.Base)
	if err != nil {
		return nil, err
	}
	env.Basis = basis
	return &System{env: env}, nil
}

// Artifact is a compiled operating point: the versioned, checksummed,
// deterministic binary bundle (".astc") holding the circuit metadata, the
// detector error model and the fingerprint of the tables built from it. A
// loader rebuilds the decoding graph and Global Weight Table from the
// model and checks them against the fingerprint. See internal/artifact for
// the format.
type Artifact = artifact.Artifact

// ArtifactMeta identifies the operating point an artifact was compiled for.
type ArtifactMeta = artifact.Meta

// Compile runs the full build pipeline for one operating point and returns
// the bundle, ready for WriteFile. Compiling the same inputs always
// produces byte-identical encodings.
func Compile(distance, rounds int, basis Basis, p float64) (*Artifact, error) {
	return artifact.Compile(distance, rounds, p, basis)
}

// ReadArtifact reads and validates a compiled .astc bundle; its fingerprint
// is checked when a system is hydrated from it.
func ReadArtifact(path string) (*Artifact, error) { return artifact.ReadFile(path) }

// SystemFromArtifact hydrates a decoding stack from a compiled artifact:
// it adopts the artifact's model, skipping DEM extraction, and rebuilds the
// decoding graph and weight table from it, refusing them unless they
// digest to the stored fingerprint. Decoders minted from the loaded system
// are bit-identical to ones built by New at the same operating point.
func SystemFromArtifact(a *Artifact) (*System, error) {
	env, err := montecarlo.NewEnvFromArtifact(a)
	if err != nil {
		return nil, err
	}
	return &System{env: env}, nil
}

// LoadSystem reads an .astc file and hydrates the decoding stack it
// describes (see SystemFromArtifact).
func LoadSystem(path string) (*System, error) {
	a, err := artifact.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return SystemFromArtifact(a)
}

// Artifact exports the system as a compiled bundle (see Compile); the
// bundle shares the system's immutable model.
func (s *System) Artifact() (*Artifact, error) { return s.env.Artifact() }

// Fingerprint returns the system's decoding-configuration digest — what an
// astread serving this operating point advertises at handshake time.
func (s *System) Fingerprint() Fingerprint {
	return decodegraph.FingerprintOf(s.env.Model, s.env.GWT)
}

// Distance returns the code distance.
func (s *System) Distance() int { return s.env.Distance }

// PhysicalErrorRate returns the operating point's p.
func (s *System) PhysicalErrorRate() float64 { return s.env.P }

// NumDetectors returns the syndrome length (one bit per Z-type detector).
func (s *System) NumDetectors() int { return s.env.Model.NumDetectors }

// MWPM returns a software exact minimum-weight perfect-matching decoder —
// the paper's BlossomV baseline.
func (s *System) MWPM() Decoder { return mwpm.New(s.env.GWT) }

// Astrea returns the paper's exhaustive real-time decoder (§5): exact MWPM
// for syndromes of Hamming weight ≤ 10, with the 250 MHz FPGA cycle model.
func (s *System) Astrea() Decoder { return astrea.New(s.env.GWT) }

// AstreaG returns Astrea-G (§7) at the paper's default design point (F=2,
// E=8, W_th derived from the operating point, 1 µs budget).
func (s *System) AstreaG() (Decoder, error) {
	cfg := hwmodel.DefaultAstreaG(experiments.DefaultWth(s.env.Distance, s.env.P))
	return astreag.New(s.env.GWT, cfg)
}

// AstreaGWith returns Astrea-G with an explicit configuration.
func (s *System) AstreaGWith(cfg AstreaGConfig) (Decoder, error) {
	return astreag.New(s.env.GWT, cfg)
}

// UnionFind returns the Union-Find decoder; weighted=false is the AFS
// baseline configuration.
func (s *System) UnionFind(weighted bool) Decoder {
	return unionfind.New(s.env.Graph, weighted)
}

// Clique returns the hierarchical Clique+MWPM decoder.
func (s *System) Clique() Decoder { return clique.New(s.env.Graph, s.env.GWT) }

// Lilliput programs a LILLIPUT lookup table; it fails beyond distance 3,
// reproducing the paper's scalability wall (§5.6).
func (s *System) Lilliput() (Decoder, error) { return lilliput.Build(s.env.GWT, 0) }

// ShotSource produces reproducible noisy memory-experiment shots.
type ShotSource struct {
	rng *prng.Source
	smp *dem.Sampler
	buf Syndrome
}

// NewShotSource returns a deterministic shot stream for the given seed.
// Not safe for concurrent use.
func (s *System) NewShotSource(seed uint64) *ShotSource {
	return &ShotSource{
		rng: prng.New(seed),
		smp: dem.NewSampler(s.env.Model),
		buf: bitvec.New(s.env.Model.NumDetectors),
	}
}

// Next samples one shot: the syndrome (valid until the next call) and the
// true logical-observable flip mask a perfect decoder would predict.
func (src *ShotSource) Next() (Syndrome, uint64) {
	obs := src.smp.Sample(src.rng, src.buf)
	return src.buf, obs
}

// DecoderFactory builds one decoder per Monte Carlo worker.
type DecoderFactory func(*System) (Decoder, error)

// Named decoder factories for EstimateLER.
var (
	MWPMDecoder    DecoderFactory = func(s *System) (Decoder, error) { return s.MWPM(), nil }
	AstreaDecoder  DecoderFactory = func(s *System) (Decoder, error) { return s.Astrea(), nil }
	AstreaGDecoder DecoderFactory = func(s *System) (Decoder, error) { return s.AstreaG() }
	AFSDecoder     DecoderFactory = func(s *System) (Decoder, error) { return s.UnionFind(false), nil }
	CliqueDecoder  DecoderFactory = func(s *System) (Decoder, error) { return s.Clique(), nil }
)

func (s *System) wrap(fs []DecoderFactory) []montecarlo.Factory {
	out := make([]montecarlo.Factory, len(fs))
	for i, f := range fs {
		f := f
		out[i] = func(*montecarlo.Env) (decoder.Decoder, error) { return f(s) }
	}
	return out
}

// EstimateLER runs a direct Monte Carlo memory experiment with the given
// shot budget and returns per-decoder statistics (logical error rate,
// Wilson interval, hardware-latency aggregates).
func (s *System) EstimateLER(shots int64, seed uint64, factories ...DecoderFactory) ([]Stats, error) {
	res, err := montecarlo.Run(s.env, montecarlo.RunConfig{Shots: shots, Seed: seed}, s.wrap(factories)...)
	if err != nil {
		return nil, err
	}
	return res.Stats, nil
}

// EstimateLERStratified runs the paper's Appendix A.1 estimator (Equation
// 3): per-stratum failure probabilities with exactly k injected faults,
// combined with binomial occurrence weights. It reaches logical error rates
// far below what direct sampling can resolve. Returns one LER per factory.
func (s *System) EstimateLERStratified(maxK int, shotsPerK int64, seed uint64, factories ...DecoderFactory) ([]float64, error) {
	res, err := montecarlo.RunStratified(s.env, montecarlo.StratifiedConfig{
		MaxK: maxK, ShotsPerK: shotsPerK, Seed: seed,
	}, s.wrap(factories)...)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(factories))
	for i := range factories {
		out[i] = res.LER(i)
	}
	return out, nil
}

// LatencyNs converts a Result's cycle count to nanoseconds at the paper's
// 250 MHz FPGA clock.
func LatencyNs(r Result) float64 { return hwmodel.LatencyNs(r.Cycles) }

// DecodeServer is the networked syndrome-decoding service: a TCP daemon
// with per-distance decoder pools, a bounded batched request queue with
// backpressure, and per-request deadline accounting against the 1 µs
// real-time budget. See cmd/astread for the standalone binary.
type DecodeServer = server.Server

// DecodeServerConfig configures a DecodeServer.
type DecodeServerConfig = server.Config

// DecodeClient is one client stream to a DecodeServer; it negotiates a
// syndrome codec at handshake and can pipeline requests. Send queues a
// request without a syscall; the queue leaves in one write when the client
// is about to block on the socket for an answer (Recv, Decode), or at once
// if another goroutine is already blocked there. Close drops requests not
// yet written.
type DecodeClient = server.Client

// DecodeResponse is the unified reply to one decode request: a result, a
// backpressure rejection with a retry hint, or a per-request error.
type DecodeResponse = server.Response

// NewDecodeServer builds a decode service; call Serve or ListenAndServe to
// accept connections and Close to drain.
func NewDecodeServer(cfg DecodeServerConfig) (*DecodeServer, error) {
	return server.New(cfg)
}

// DialDecode connects a client stream to a running decode service for one
// code distance, negotiating the named syndrome codec ("dense", "sparse" or
// "rice").
func DialDecode(addr string, distance int, codecName string) (*DecodeClient, error) {
	id, err := compress.IDByName(codecName)
	if err != nil {
		return nil, err
	}
	return server.Dial(addr, distance, id)
}

// ArtifactRotation describes one zero-downtime hot-swap of a running
// DecodeServer's decoder pool to a newly compiled artifact generation
// (DecodeServer.Rotate): in-flight requests and open streams finish on the
// old generation while new work lands on the new one.
type ArtifactRotation = server.Rotation

// Fingerprint is a stable digest of a server's decoding configuration
// (detector error model + quantised weight table). Two servers with the
// same fingerprint produce interchangeable corrections.
type Fingerprint = decodegraph.Fingerprint

// StreamConfig parameterises a windowed streaming decode pipeline; leave
// Env nil when building through System.NewStreamPipeline.
type StreamConfig = stream.Config

// StreamCommit is one committed window of a streaming decode: the
// correction for a contiguous run of syndrome rounds, emitted in round
// order with every round committed exactly once.
type StreamCommit = stream.Commit

// StreamStats snapshots a streaming pipeline's counters (rows, windows,
// forced cuts, deadline misses, cumulative correction).
type StreamStats = stream.Stats

// StreamPipeline decodes an unbounded syndrome-round stream by windowed
// MWPM: rows are pushed one syndrome round at a time, windows are cut at
// provably safe quiet gaps (or forced at a length cap and reconciled
// across the seam), and each window is decoded and committed, in order, on
// the goroutine that pushed its last row. On a closed stream the committed corrections
// are bit-identical to a whole-shot decode.
type StreamPipeline = stream.Pipeline

// NewStreamPipeline builds a streaming pipeline at this system's operating
// point (cfg.Env is overridden; zero-value cfg fields take defaults).
func (s *System) NewStreamPipeline(cfg StreamConfig) (*StreamPipeline, error) {
	cfg.Env = s.env
	return stream.New(cfg)
}

// DecodeClosedStream pushes a complete (closed) round stream through a
// windowed pipeline and returns the in-order commits — the convenience
// wrapper around StreamPipeline for finite streams.
func (s *System) DecodeClosedStream(cfg StreamConfig, rows []Syndrome) ([]StreamCommit, StreamStats, error) {
	cfg.Env = s.env
	return stream.DecodeClosed(cfg, rows)
}

// StreamRowWidth returns the detector bits per syndrome round — the width
// every row pushed into a StreamPipeline must have.
func (s *System) StreamRowWidth() int { return stream.RowWidth(s.env) }

// NewSyndrome allocates a zeroed detector bit vector of the given width.
// Whole-shot decoders take NumDetectors bits; streaming rows take
// StreamRowWidth bits.
func NewSyndrome(bits int) Syndrome { return bitvec.New(bits) }

// SplitRows slices a whole-shot syndrome into its per-round rows in time
// order — the form a StreamPipeline or DecodeStream consumes. The rows
// are fresh copies; mutating them leaves the shot intact.
func (s *System) SplitRows(shot Syndrome) ([]Syndrome, error) {
	width := s.StreamRowWidth()
	if shot.Len() != s.NumDetectors() {
		return nil, fmt.Errorf("astrea: shot has %d bits, operating point has %d detectors", shot.Len(), s.NumDetectors())
	}
	rows := make([]Syndrome, shot.Len()/width)
	for r := range rows {
		row := bitvec.New(width)
		for k := 0; k < width; k++ {
			if shot.Get(r*width + k) {
				row.Set(k)
			}
		}
		rows[r] = row
	}
	return rows, nil
}

// SafeGapRounds returns the smallest quiet-gap length at which cutting a
// streaming window is provably exact for this operating point.
func (s *System) SafeGapRounds() int { return stream.SafeGapRounds(s.env) }

// DecodeStream is one open windowed streaming session on a DecodeClient:
// rounds go up via SendRounds, commits come back via Recv, CloseSend
// finishes the stream and Recv's final event carries the summary.
type DecodeStream = server.Stream

// DecodeStreamOptions requests session window parameters (zero = server
// defaults; the server may clamp).
type DecodeStreamOptions = server.StreamOptions

// DecodeStreamEvent is one commit (or, with Closed set, the final summary)
// received from a streaming session.
type DecodeStreamEvent = server.StreamEvent

// DialDecodeStream connects to a decode service and opens a windowed
// streaming session on it: the handshake offers the streaming and checksum
// feature bits, so pre-streaming daemons refuse cleanly at dial time.
func DialDecodeStream(addr string, distance int, codecName string, opts DecodeStreamOptions) (*DecodeClient, *DecodeStream, error) {
	id, err := compress.IDByName(codecName)
	if err != nil {
		return nil, nil, err
	}
	client, err := server.DialOptions(addr, distance, id, server.ClientOptions{
		Features: server.FeatureStream | server.FeatureChecksum,
	})
	if err != nil {
		return nil, nil, err
	}
	st, err := client.OpenStream(opts)
	if err != nil {
		client.Close()
		return nil, nil, err
	}
	return client, st, nil
}

// ChainStep is one error mechanism of a physical correction chain.
type ChainStep = decodegraph.ChainStep

// CorrectionChains reconstructs the physical correction behind a decode
// result: for each matched pair, the most probable chain of error
// mechanisms (graph edges) connecting the two detectors — or a detector and
// the lattice boundary — whose reversal implements the correction (§2.2).
// Returns one chain per pair of r.Pairs; nil for table decoders that carry
// no explicit matching.
func (s *System) CorrectionChains(r Result) ([][]ChainStep, error) {
	if r.Pairs == nil {
		return nil, nil
	}
	out := make([][]ChainStep, 0, len(r.Pairs))
	for _, p := range r.Pairs {
		j := p[1]
		if j == Boundary {
			j = s.env.Graph.Boundary()
		}
		chain, err := s.env.Graph.ChainBetween(p[0], j)
		if err != nil {
			return nil, err
		}
		out = append(out, chain)
	}
	return out, nil
}
