// Command astrea is the experiment runner, mirroring the paper artifact's
// CLI: it regenerates the evaluation's tables and figures and writes the
// rendered results to an output file (and stdout).
//
// Usage:
//
//	astrea [flags] <output-file> <experiment> [args...]
//	astrea compile [-out dir] [-distances 3,5,7] [-rounds N] [-p rate] [-basis Z|X] [-gen N]
//
// The compile subcommand runs the build pipeline (surface code → noisy
// circuit → detector error model → decoding graph → Global Weight Table)
// once per distance and writes each operating point's model, fingerprinted
// with its table, as a versioned, checksummed .astc bundle. astread
// (-artifact / -artifact-dir) and astrea.LoadSystem hydrate it at startup:
// they rebuild the table from the model and check it against the
// fingerprint.
// Compilation is deterministic: the same operating point always produces a
// byte-identical bundle. -gen stamps the bundles with a generation ordinal
// for zero-downtime rotation: a running astread picks up a strictly newer
// generation from its watch directory (-artifact-watch or SIGHUP) and
// hot-swaps onto it.
//
// Experiments (numbers follow the artifact where one exists):
//
//	1  <d>                      LER vs physical error rate (Fig 12 at d=7, Fig 14 at d=9)
//	2  [d...]                   Table 4: per-decoder logical error rates at p=1e-4
//	3  <d> <p>                  Fig 3: software MWPM latency distribution
//	4                           Fig 4: LER vs distance for MWPM/AFS/Clique
//	5                           Table 5: Hamming-weight probabilities, d=7, p=1e-3 vs 1e-4
//	6  <d> <p>                  Table 2 row / Fig 6: Hamming-weight histogram + MWPM LER
//	9                           Fig 9: Astrea latency by distance
//	10 <d> <p>                  Fig 10(a)+(b): GWT weight histogram and W_th filtering
//	12 <d> <t0> <t1> <step>     Table 7: bandwidth/transmission-time study (ns)
//	13                          Fig 13: W_th sweep, d=7, p=1e-3
//	14                          Table 9: stratified LERs at p=1e-4, d=7/9/11
//	0                           static models: Tables 1, 3, 6, 8 and the LILLIPUT wall
//	15 <d> <p>                  streaming real-time study (Fig 3 extension)
//	16 <d> <p>                  syndrome compression study (§7.6)
//	17 <d>                      non-uniform noise / GWT reprogramming (§8.2)
//	18 <d> <p>                  memory-X vs memory-Z equivalence (§3.4)
//	19 <d> <p>                  Astrea-G F/E design-space ablation (§7.1)
//	20 <d> <p>                  GWT quantisation ablation (§5.1)
//	21 <p>                      Union-Find weighting ablation
//
// Flags:
//
//	-budget quick|standard|full   Monte Carlo effort preset (default standard)
//	-shots N -shotsperk N         explicit budget overrides
//	-seed N                       PRNG seed (default 2023)
//	-workers N                    worker goroutines (default GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/experiments"
	"astrea/internal/surface"
)

type renderer interface {
	Render(w io.Writer) error
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "astrea:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compile" {
		return runCompile(args[1:])
	}
	fs := flag.NewFlagSet("astrea", flag.ContinueOnError)
	budgetName := fs.String("budget", "standard", "effort preset: quick, standard or full")
	shots := fs.Int64("shots", 0, "override direct Monte Carlo shots")
	shotsPerK := fs.Int64("shotsperk", 0, "override stratified shots per stratum")
	seed := fs.Uint64("seed", 2023, "PRNG seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 2 {
		return fmt.Errorf("usage: astrea [flags] <output-file> <experiment> [args...]")
	}
	outPath, exp := rest[0], rest[1]
	expArgs := rest[2:]

	b, err := budget(*budgetName)
	if err != nil {
		return err
	}
	if *shots > 0 {
		b.Shots = *shots
	}
	if *shotsPerK > 0 {
		b.ShotsPerK = *shotsPerK
	}
	b.Seed = *seed
	b.Workers = *workers

	results, err := dispatch(exp, expArgs, b)
	if err != nil {
		return err
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	out := io.MultiWriter(os.Stdout, f)
	for _, r := range results {
		if err := r.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runCompile implements `astrea compile`: build each requested operating
// point once and write it as a .astc bundle for the serve path to load.
func runCompile(args []string) error {
	fs := flag.NewFlagSet("astrea compile", flag.ContinueOnError)
	out := fs.String("out", ".", "output directory for .astc bundles")
	distances := fs.String("distances", "3,5,7", "comma-separated code distances")
	rounds := fs.Int("rounds", 0, "syndrome-extraction rounds (0 = one per distance, as the paper runs)")
	p := fs.Float64("p", 1e-3, "physical error rate the weight tables are programmed for")
	basisName := fs.String("basis", "Z", "memory-experiment basis: Z or X")
	gen := fs.Uint64("gen", 0, "generation ordinal stamped into the bundles (rotation ordering)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var basis surface.Basis
	switch strings.ToUpper(*basisName) {
	case "Z":
		basis = surface.BasisZ
	case "X":
		basis = surface.BasisX
	default:
		return fmt.Errorf("compile: unknown basis %q (want Z or X)", *basisName)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, part := range strings.Split(*distances, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil {
			return fmt.Errorf("compile: bad distance %q: %w", part, err)
		}
		r := *rounds
		if r <= 0 {
			r = d
		}
		start := time.Now()
		a, err := artifact.Compile(d, r, *p, basis)
		if err != nil {
			return fmt.Errorf("compile: d=%d: %w", d, err)
		}
		a.Meta.Generation = *gen
		built := time.Since(start)
		path := filepath.Join(*out, artifact.FileName(a.Meta))
		start = time.Now()
		enc := a.Encode()
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			return err
		}
		fmt.Printf("compiled %s: %d bytes, fingerprint %s (build %v, encode+write %v)\n",
			path, len(enc), a.Fingerprint, built.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func budget(name string) (experiments.Budget, error) {
	switch name {
	case "quick":
		return experiments.Quick, nil
	case "standard":
		return experiments.Standard, nil
	case "full":
		return experiments.Full, nil
	}
	return experiments.Budget{}, fmt.Errorf("unknown budget %q", name)
}

func dispatch(exp string, args []string, b experiments.Budget) ([]renderer, error) {
	argInt := func(i int, def int) (int, error) {
		if i >= len(args) {
			if def >= 0 {
				return def, nil
			}
			return 0, fmt.Errorf("experiment %s: missing argument %d", exp, i+1)
		}
		return strconv.Atoi(args[i])
	}
	argFloat := func(i int, def float64) (float64, error) {
		if i >= len(args) {
			if def >= 0 {
				return def, nil
			}
			return 0, fmt.Errorf("experiment %s: missing argument %d", exp, i+1)
		}
		return strconv.ParseFloat(args[i], 64)
	}

	switch exp {
	case "0":
		t1, err := experiments.Table1(3, 5, 7, 9)
		if err != nil {
			return nil, err
		}
		return []renderer{t1, experiments.Table6(), experiments.Table3And8(), experiments.LilliputWall()}, nil

	case "1":
		d, err := argInt(0, 7)
		if err != nil {
			return nil, err
		}
		res, err := experiments.LERSweep(b, d)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "2":
		var ds []int
		for i := range args {
			d, err := argInt(i, -1)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d)
		}
		res, err := experiments.Table4(b, ds...)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "3":
		d, err := argInt(0, 7)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 1e-3)
		if err != nil {
			return nil, err
		}
		res, err := experiments.SoftwareMWPMLatency(d, p, b)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "4":
		res, err := experiments.LERVsDistance(b)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "5":
		res, err := experiments.Table5(b)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "6":
		d, err := argInt(0, 7)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 1e-4)
		if err != nil {
			return nil, err
		}
		fig, err := experiments.Fig6(d, p, b)
		if err != nil {
			return nil, err
		}
		tab, err := experiments.Table2(b, d)
		if err != nil {
			return nil, err
		}
		return []renderer{fig, tab}, nil

	case "9":
		res, err := experiments.AstreaLatency(b)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "10":
		d, err := argInt(0, 7)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 1e-3)
		if err != nil {
			return nil, err
		}
		a, err := experiments.WeightHistogram(d, p)
		if err != nil {
			return nil, err
		}
		bRes, err := experiments.FilterReduction(b, d, p, 16)
		if err != nil {
			return nil, err
		}
		return []renderer{a, bRes}, nil

	case "12":
		d, err := argInt(0, 9)
		if err != nil {
			return nil, err
		}
		t0, err := argInt(1, 500)
		if err != nil {
			return nil, err
		}
		t1, err := argInt(2, 1000)
		if err != nil {
			return nil, err
		}
		step, err := argInt(3, 100)
		if err != nil {
			return nil, err
		}
		// Artifact semantics: decode-time budget from t0..t1 ns; transmission
		// time = 1000 - t.
		var transmissions []float64
		for t := t1; t >= t0; t -= step {
			transmissions = append(transmissions, float64(1000-t))
		}
		res, err := experiments.Bandwidth(b, d, 1e-3, transmissions)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "13":
		res, err := experiments.WthSweep(b, 7, 1e-3)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "14":
		p, err := argFloat(0, 1e-4)
		if err != nil {
			return nil, err
		}
		res, err := experiments.Table9At(b, p)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "15": // streaming real-time study (Fig 3 extension)
		d, err := argInt(0, 7)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 1e-3)
		if err != nil {
			return nil, err
		}
		res, err := experiments.StreamingStudy(b, d, p)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "16": // syndrome compression (§7.6 extension)
		d, err := argInt(0, 9)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 1e-3)
		if err != nil {
			return nil, err
		}
		res, err := experiments.CompressionStudy(b, d, p)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "17": // non-uniform noise / GWT reprogramming (§8.2)
		d, err := argInt(0, 5)
		if err != nil {
			return nil, err
		}
		res, err := experiments.NonUniformStudy(b, d, 1e-3, 10)
		if err != nil {
			return nil, err
		}
		drift, err := experiments.DriftStudy(b, d, 1e-3, 5)
		if err != nil {
			return nil, err
		}
		return []renderer{res, drift}, nil

	case "18": // memory-X vs memory-Z equivalence (§3.4)
		d, err := argInt(0, 5)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 2e-3)
		if err != nil {
			return nil, err
		}
		res, err := experiments.XZEquivalence(b, d, p)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "19": // Astrea-G F/E design-space ablation (§7.1)
		d, err := argInt(0, 7)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 5e-3)
		if err != nil {
			return nil, err
		}
		res, err := experiments.FEAblation(b, d, p, nil, nil)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "21": // Union-Find weighting ablation
		p, err := argFloat(0, 1e-4)
		if err != nil {
			return nil, err
		}
		res, err := experiments.UFAblation(b, p)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil

	case "20": // GWT quantisation ablation (§5.1)
		d, err := argInt(0, 5)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1, 1e-3)
		if err != nil {
			return nil, err
		}
		res, err := experiments.QuantizationStudy(b, d, p)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (see -h)", exp)
}
