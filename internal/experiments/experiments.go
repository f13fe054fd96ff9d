// Package experiments defines one runnable experiment per table and figure
// of the paper's evaluation, on top of the montecarlo engine. Each
// experiment returns a typed result with a Render method; the cmd/astrea
// CLI, the benchmark harness and the integration tests all call the same
// functions, differing only in Budget.
package experiments

import (
	"fmt"
	"math"

	"astrea/internal/astrea"
	"astrea/internal/astreag"
	"astrea/internal/clique"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/hwmodel"
	"astrea/internal/lilliput"
	"astrea/internal/montecarlo"
	"astrea/internal/mwpm"
	"astrea/internal/sparsemwpm"
	"astrea/internal/unionfind"
)

// Budget scales an experiment's Monte Carlo effort. The paper's artifact
// runs billions of trials on a 1024-core cluster; Quick is sized for CI,
// Standard for a workstation run of a few minutes per experiment, Full for
// a long reproduction run.
type Budget struct {
	// Shots is the direct Monte Carlo budget per operating point.
	Shots int64
	// ShotsPerK is the per-stratum budget of the Equation (3) estimator.
	ShotsPerK int64
	Seed      uint64
	Workers   int
}

// Preset budgets.
var (
	Quick    = Budget{Shots: 200_000, ShotsPerK: 3_000, Seed: 2023}
	Standard = Budget{Shots: 5_000_000, ShotsPerK: 100_000, Seed: 2023}
	Full     = Budget{Shots: 200_000_000, ShotsPerK: 2_000_000, Seed: 2023}
)

// Decoder factories shared by the experiments.

// MWPMFactory builds the software MWPM baseline on the dense complete-graph
// blossom engine (the classic formulation over the all-pairs table).
func MWPMFactory(env *montecarlo.Env) (decoder.Decoder, error) { return mwpm.New(env.GWT), nil }

// SparseMWPMFactory builds the same MWPM baseline on the sparse
// exact-matching engine (internal/sparsemwpm): matching runs on the
// decoding graph's adjacency instead of the dense table, with bit-identical
// outputs — the two factories are interchangeable anywhere results are
// compared.
func SparseMWPMFactory(env *montecarlo.Env) (decoder.Decoder, error) {
	return mwpm.NewWithEngine(env.GWT, sparsemwpm.New(env.Graph)), nil
}

// AstreaFactory builds the Astrea exhaustive decoder.
func AstreaFactory(env *montecarlo.Env) (decoder.Decoder, error) { return astrea.New(env.GWT), nil }

// AstreaGFactory builds Astrea-G at the paper's default design point, with
// W_th derived from the operating point via DefaultWth.
func AstreaGFactory(env *montecarlo.Env) (decoder.Decoder, error) {
	return astreag.New(env.GWT, hwmodel.DefaultAstreaG(DefaultWth(env.Distance, env.P)))
}

// AstreaGWithConfig returns a factory with an explicit configuration
// (used by the W_th sweep and the bandwidth study).
func AstreaGWithConfig(cfg hwmodel.AstreaGConfig) montecarlo.Factory {
	return func(env *montecarlo.Env) (decoder.Decoder, error) {
		return astreag.New(env.GWT, cfg)
	}
}

// UFFactory builds the unweighted Union-Find decoder (the AFS baseline).
func UFFactory(env *montecarlo.Env) (decoder.Decoder, error) {
	return unionfind.New(env.Graph, false), nil
}

// WeightedUFFactory builds the weighted Union-Find decoder — the service's
// "uf" and the fallback a daemon degrades to.
func WeightedUFFactory(env *montecarlo.Env) (decoder.Decoder, error) {
	return unionfind.New(env.Graph, true), nil
}

// FactoryFor maps a service decoder name ("astrea", "astrea-g", "mwpm",
// "mwpm-sparse", "mwpm-dense", "uf", "uf-unweighted") to its factory. It is
// the one registry behind the daemon's pools, the stream pipeline's window
// decoders and every load-generator verifier, so a name one layer accepts
// is a name all of them accept. "mwpm" is served by the dense blossom
// engine, the faster of the two exact engines against a warm GWT (bench
// workload lib_highhw); "mwpm-sparse" selects the sparse engine —
// bit-identical by internal/sparsemwpm's cross-engine suites, O(E) matching
// state — and both engines are attributed per pool on /stats.
func FactoryFor(name string) (montecarlo.Factory, error) {
	switch name {
	case "astrea":
		return AstreaFactory, nil
	case "astrea-g":
		return AstreaGFactory, nil
	case "mwpm", "mwpm-dense":
		return MWPMFactory, nil
	case "mwpm-sparse":
		return SparseMWPMFactory, nil
	case "uf":
		return WeightedUFFactory, nil
	case "uf-unweighted":
		return UFFactory, nil
	}
	return nil, fmt.Errorf("experiments: unknown decoder %q (want astrea, astrea-g, mwpm, mwpm-sparse, mwpm-dense, uf or uf-unweighted)", name)
}

// CliqueFactory builds the hierarchical Clique+MWPM decoder.
func CliqueFactory(env *montecarlo.Env) (decoder.Decoder, error) {
	return clique.New(env.Graph, env.GWT), nil
}

// LilliputFactory programs a LILLIPUT lookup table (distance 3 only).
func LilliputFactory(env *montecarlo.Env) (decoder.Decoder, error) {
	return lilliput.Build(env.GWT, 0)
}

// DefaultWth is the paper's threshold rule W_th = −log10(0.01·P_L), using
// the approximate logical error rates of the paper's own Table 2/Fig 12
// operating points. At the d=7, p=1e-3 point this evaluates to 7, the
// default the paper uses.
func DefaultWth(d int, p float64) float64 {
	pl := ApproxLER(d, p)
	w := -math.Log10(0.01 * pl)
	if w < 4 {
		w = 4
	}
	if w > 12 {
		w = 12
	}
	return w
}

// ApproxLER is a coarse closed-form fit of the paper's MWPM logical error
// rates, LER ≈ 0.1·(p/p_th)^((d+1)/2) with p_th = 0.01, used only to pick
// W_th (the paper likewise assumes the target logical error rate is known).
func ApproxLER(d int, p float64) float64 {
	return 0.1 * math.Pow(p/0.01, float64(d+1)/2)
}

// maxKFor picks the stratified estimator's deepest stratum for an
// environment: cover the binomial fault-count distribution to about six
// standard deviations above its mean, with a floor that keeps low-noise
// points meaningful and a cap that bounds run time.
func maxKFor(env *montecarlo.Env) int {
	n := float64(len(env.Circuit.Slots()))
	mean := n * env.P
	k := int(math.Ceil(mean + 6*math.Sqrt(mean+1)))
	if k < 10 {
		k = 10
	}
	if k > 40 {
		k = 40
	}
	return k
}

// stratifiedLERs runs the Equation (3) estimator for the given decoders
// and returns one LER per factory.
func stratifiedLERs(env *montecarlo.Env, b Budget, factories ...montecarlo.Factory) ([]float64, *montecarlo.StratifiedResult, error) {
	res, err := montecarlo.RunStratified(env, montecarlo.StratifiedConfig{
		MaxK:      maxKFor(env),
		ShotsPerK: b.ShotsPerK,
		Seed:      b.Seed,
		Workers:   b.Workers,
	}, factories...)
	if err != nil {
		return nil, nil, err
	}
	lers := make([]float64, len(factories))
	for i := range factories {
		lers[i] = res.LER(i)
	}
	return lers, res, nil
}

// Env returns a cached environment for a d-round memory experiment. The
// cache is the process-wide one in montecarlo, so experiments, servers and
// tests launched in one process all share the same built tables.
func Env(d int, p float64) (*montecarlo.Env, error) {
	return montecarlo.SharedEnv(d, d, p)
}

// QuantizeWth snaps a threshold to the GWT's fixed-point grid.
func QuantizeWth(w float64) float64 {
	return decodegraph.Dequantize(decodegraph.Quantize(w))
}
