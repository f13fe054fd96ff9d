// Command bench is the repository's benchmark: five workloads that each put a
// different layer of the decoder stack to work, six numbers a user of the
// system would see for each, and a traced run that breaks them down by layer.
// See README.md for why each workload exists and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly the keys the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result: what tells two result
// files apart, and the per-epoch values behind each reported number.
type detail struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Quick      bool                 `json:"quick"`
	Nproc      int                  `json:"nproc"`
	Gomaxprocs int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	Commit     string               `json:"commit"`
	Epochs     int                  `json:"epochs"`
	Setups     int                  `json:"setups"`
	Values     map[string][]float64 `json:"values"`
	LatSamples int                  `json:"lat_samples_per_epoch"`
}

// watchdogLimit turns a hang into a non-zero exit that names the workload,
// inside the 180 s the driver allows one run.
const watchdogLimit = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		quick   = flag.Bool("quick", false, "run at ~1 % size: exercises every path, measures nothing")
		outDir  = flag.String("out", defaultOutDir(), "directory for span files and probe artifacts")
		sweep   = flag.Int("sweep", 0, "run every workload this many times (seeds seed..seed+n-1) and report the spread")
		sweepTo = flag.String("o", "", "with -sweep: write the collected runs to this file")
		compare = flag.Bool("compare", false, "compare two -sweep files: bench -compare a.json b.json")
		spec    = flag.String("spec", "", "path to BENCHMARK.json (default: found next to the bench directory)")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(*spec, flag.Args())
	case *sweep > 0:
		err = runSweep(*spec, *sweep, *seed, *seconds, *trace, *quick, *sweepTo)
	case *name == "":
		err = fmt.Errorf("no -workload given (want one of %v), or use -sweep / -compare", workloadNames)
	default:
		var res result
		var det detail
		res, det, err = runWorkload(*name, *seed, *seconds, *trace == 1, *quick, *outDir)
		if err == nil {
			err = printLines(det, res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

func printLines(v ...any) error {
	enc := json.NewEncoder(os.Stdout)
	for _, x := range v {
		if err := enc.Encode(x); err != nil {
			return err
		}
	}
	return nil
}

// setupRuns is how many times set-up is repeated; setup_s is their better
// quartile, so neither the first, cold build nor a disturbed one decides it.
const setupRuns = 9

// runWorkload is one invocation: prepare inputs, set up (timed, repeated),
// run one untimed warm-up/reference chunk, then measure epochs for the asked
// time and report the better-quartile epoch.
func runWorkload(name string, seed uint64, seconds float64, traced, quick bool, outDir string) (res result, det detail, err error) {
	res = result{Metrics: map[string]metric{}}
	det = detail{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Quick: quick,
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Values: map[string][]float64{},
	}
	w, err := newWorkload(name)
	if err != nil {
		return res, det, err
	}
	dog := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: workload %s hung: no result after %v\n", name, watchdogLimit)
		os.Exit(3)
	})
	defer dog.Stop()

	o := &options{seed: seed, quick: quick, origin: time.Now()}
	if err := w.prepare(o); err != nil {
		return res, det, fmt.Errorf("%s: prepare: %w", name, err)
	}
	// Whatever set-up started is closed, and its goroutines joined, on every path.
	defer func() {
		if terr := w.teardown(); terr != nil && err == nil {
			err = fmt.Errorf("%s: teardown: %w", name, terr)
		}
	}()
	var setups []float64
	for i := 0; i < o.size(setupRuns, 1); i++ {
		if err := w.teardown(); err != nil {
			return res, det, fmt.Errorf("%s: teardown: %w", name, err)
		}
		t := time.Now()
		if err := w.setup(); err != nil {
			return res, det, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	det.Setups = len(setups)
	runtime.GC()
	var atRest runtime.MemStats
	runtime.ReadMemStats(&atRest)

	if _, err := w.chunk(false); err != nil {
		return res, det, fmt.Errorf("%s: warm-up: %w", name, err)
	}

	// A traced run spends half its time on epochs, alternating untraced and
	// traced ones so both see the same minute of the machine, and the rest on
	// replay probes.
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	var plain, spanned []epochStat
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; time.Since(start) < budget || len(plain) < 3 || (traced && len(spanned) < 3); i++ {
		withSpans := traced && i%2 == 1
		ep, err := runEpoch(w, o, withSpans)
		if err != nil {
			return res, det, fmt.Errorf("%s: epoch %d: %w", name, i, err)
		}
		if withSpans {
			spanned = append(spanned, ep)
		} else {
			plain = append(plain, ep)
		}
		res.Attempted += ep.attempted
		res.Failed += ep.failed
	}
	runtime.ReadMemStats(&after)
	det.Epochs = len(plain) + len(spanned)
	det.LatSamples = plain[0].latSamples
	res.Correct = res.Failed == 0

	if !traced {
		endToEnd(&res, &det, setups, plain)
		return res, det, nil
	}
	m := map[string]float64{}
	for _, l := range perLayer {
		m[l.name] = 0 // a layer the workload does not exercise did no work
	}
	ops := float64(res.Attempted)
	m["proc.heap_after_setup_mb"] = float64(atRest.HeapAlloc) / (1 << 20)
	m["proc.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	m["proc.alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
	m["proc.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["trace.overhead_share"] = 1 - typicalOpsPerS(spanned)/typicalOpsPerS(plain)
	if err := w.layers(m); err != nil {
		return res, det, fmt.Errorf("%s: layer metrics: %w", name, err)
	}
	spans, dropped := mergeShards(w.shards()...)
	layers, err := writeTrace(outDir, name, spans, dropped)
	if err != nil {
		return res, det, fmt.Errorf("%s: trace: %w", name, err)
	}
	m["client.send_ns"] = layers["client.send"].meanNs()
	m["client.send_rounds_ns"] = layers["client.send_rounds"].meanNs()
	m["stream.pushrow_ns"] = layers["stream.pushrow"].meanNs()
	if err := runProbes(m, o, w, outDir); err != nil {
		return res, det, fmt.Errorf("%s: probes: %w", name, err)
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{Value: m[l.name], Unit: l.unit}
	}
	return res, det, nil
}

// epochLen is how much measured work one epoch strings together: long enough
// to span garbage-collection cycles and hold ≥ 10 000 latency samples, so the
// 99th percentile has ≥ 100 samples beyond it, and short enough that a run
// has ten or more epochs to take a quartile over.
const epochLen = time.Second

// epochStat is about a second of consecutive chunks: ops, wall and CPU time
// summed, latencies pooled.
type epochStat struct {
	ops, attempted, failed int64
	wallNs, cpuNs          int64
	latP50Ns, latP99Ns     float64
	latSamples             int
}

func runEpoch(w workload, o *options, traced bool) (epochStat, error) {
	var ep epochStat
	lat := o.latBuf[:0]
	want := epochLen.Nanoseconds()
	if o.quick {
		want = 0 // one chunk
	}
	for {
		st, err := w.chunk(traced)
		if err != nil {
			return ep, err
		}
		ep.ops += st.ops
		ep.attempted += st.attempted
		ep.failed += st.failed
		ep.wallNs += st.wallNs
		ep.cpuNs += st.cpuNs
		lat = append(lat, st.lat...)
		if ep.wallNs >= want {
			break
		}
	}
	ep.latP50Ns, ep.latP99Ns, ep.latSamples = quantileNs(lat, 0.50), quantileNs(lat, 0.99), len(lat)
	o.latBuf = lat
	return ep, nil
}

func opsPerS(e epochStat) float64    { return float64(e.ops) / (float64(e.wallNs) / 1e9) }
func cpuUsPerOp(e epochStat) float64 { return float64(e.cpuNs) / 1e3 / float64(e.ops) }
func latP50Us(e epochStat) float64   { return e.latP50Ns / 1e3 }
func latP99Us(e epochStat) float64   { return e.latP99Ns / 1e3 }

func values(cs []epochStat, f func(epochStat) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

func typicalOpsPerS(cs []epochStat) float64 { return betterQuartile(values(cs, opsPerS), true) }

// endToEnd reports each end-to-end metric as the better quartile over the
// epochs (over the repeated set-ups for setup_s); the detail line carries every
// epoch's value, so min, max and sample count can be read off it.
func endToEnd(res *result, det *detail, setups []float64, epochs []epochStat) {
	for _, e := range endToEndMetrics {
		xs := setups
		if e.of != nil {
			xs = values(epochs, e.of)
		}
		res.Metrics[e.name] = metric{Value: betterQuartile(xs, e.higher), Unit: e.unit}
		det.Values[e.name] = xs
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a plain checkout without .git records none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
