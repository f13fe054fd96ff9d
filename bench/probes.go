package main

import (
	"runtime"
	"time"
)

// Replay probes: the workload's own inputs pushed through one layer's public
// functions in isolation. They run in the traced invocation only and feed
// per-layer metrics; no end-to-end metric comes from here.

// probeSample bounds what a probe replays, so the traced run stays inside
// its time budget whatever the workload's input size.
const probeSample = 2000

// hwBands are Table 2's Hamming-weight bands: band i holds weights 2i+1 and 2i+2.
var hwBands = []string{
	"astrea.decode_ns_hw1-2",
	"astrea.decode_ns_hw3-4",
	"astrea.decode_ns_hw5-6",
	"astrea.decode_ns_hw7-8",
	"astrea.decode_ns_hw9-10",
}

// decodeNs replays syn through one decoder, each call timed, and returns the
// per-call nanoseconds in input order. The first pass is a warm-up.
func decodeNs(dec Decoder, syn []Syndrome) []int64 {
	ns := make([]int64, len(syn))
	for pass := 0; pass < 2; pass++ {
		for i, s := range syn {
			t := time.Now()
			dec.Decode(s)
			ns[i] = time.Since(t).Nanoseconds()
		}
	}
	return ns
}

// astreaBandProbe times Astrea per Hamming-weight band beside the cycle
// model's prediction for the same syndromes (Fig 9's measured column).
// A band the workload's inputs never reach reads 0.
func astreaBandProbe(m map[string]float64, env *Env, syn []Syndrome) error {
	dec, err := newDecoder(env, "astrea")
	if err != nil {
		return err
	}
	var inRange []Syndrome
	for _, s := range syn {
		if hw := s.PopCount(); hw >= 1 && hw <= 10 {
			inRange = append(inRange, s)
		}
	}
	ns := decodeNs(dec, inRange)
	var sumNs, sumModel float64
	bands := make([][]int64, len(hwBands))
	for i, s := range inRange {
		hw := s.PopCount()
		bands[(hw-1)/2] = append(bands[(hw-1)/2], ns[i])
		sumNs += float64(ns[i])
		sumModel += modelLatencyNs(dec.Decode(s))
	}
	for i, name := range hwBands {
		m[name] = quantileNs(bands[i], 0.50)
	}
	n := float64(max(len(inRange), 1))
	m["astrea.decode_mean_ns"] = sumNs / n
	m["astrea.model_mean_ns"] = sumModel / n
	return nil
}

// engineProbe is the median Decode time of every other engine on the same
// syndromes: the exact engines ROADMAP item 2 chooses between, Astrea-G, and
// the Union-Find decoder the daemon degrades to.
func engineProbe(m map[string]float64, env *Env, syn []Syndrome) error {
	for _, e := range []struct{ metric, decoder string }{
		{"blossom.decode_ns", "mwpm-dense"},
		{"sparsemwpm.decode_ns", "mwpm-sparse"},
		{"astreag.decode_ns", "astrea-g"},
		{"unionfind.decode_ns", "uf"},
	} {
		dec, err := newDecoder(env, e.decoder)
		if err != nil {
			return err
		}
		m[e.metric] = quantileNs(decodeNs(dec, syn), 0.50)
	}
	return nil
}

// allocProbe counts heap allocations per Decode of the decoder under test.
func allocProbe(m map[string]float64, env *Env, name string, syn []Syndrome) error {
	dec, err := newDecoder(env, name)
	if err != nil {
		return err
	}
	for _, s := range syn {
		dec.Decode(s)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, s := range syn {
		dec.Decode(s)
	}
	runtime.ReadMemStats(&b)
	m["decoder.allocs_per_op"] = float64(b.Mallocs-a.Mallocs) / float64(len(syn))
	return nil
}

// runProbes fills m with every layer metric that does not need the
// workload's driver: the build stages, the artifact path, service and stream
// construction, and the codec, frame, histogram, sampler and Monte Carlo layers.
func runProbes(m map[string]float64, o *options, w workload, outDir string) error {
	d, p, syn, name := w.probeInput()
	syn = syn[:min(len(syn), o.size(probeSample, 200))]

	b, err := timeBuildStages(d, p)
	if err != nil {
		return err
	}
	m["surface.circuit_build_ms"] = b.CircuitMs
	m["dem.extract_ms"] = b.DemMs
	m["decodegraph.graph_build_ms"] = b.GraphMs
	m["decodegraph.gwt_build_ms"] = b.GwtMs
	m["decodegraph.gwt_bytes"] = float64(b.GwtBytes)
	if !o.quick {
		// The table is O(N²) in detectors: d=9 says how the set-up cost grows.
		b9, err := timeBuildStages(9, p)
		if err != nil {
			return err
		}
		m["decodegraph.gwt_build_d9_ms"] = b9.GwtMs
		m["decodegraph.gwt_bytes_d9"] = float64(b9.GwtBytes)
	} else {
		m["decodegraph.gwt_build_d9_ms"], m["decodegraph.gwt_bytes_d9"] = 0, 0
	}
	if m["artifact.compile_ms"], m["artifact.bytes"], m["artifact.load_ms"], err = artifactProbe(d, p, outDir); err != nil {
		return err
	}

	env, err := buildEnv(d, p)
	if err != nil {
		return err
	}
	t := time.Now()
	svc, err := startService(env, name)
	if err != nil {
		return err
	}
	c, err := svc.dial()
	if err != nil {
		return err
	}
	m["server.start_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	if err := c.Close(); err != nil {
		return err
	}
	if err := svc.close(); err != nil {
		return err
	}
	t = time.Now()
	pl, err := newPipeline(env, "astrea")
	if err != nil {
		return err
	}
	m["stream.new_us"] = float64(time.Since(t).Nanoseconds()) / 1e3
	pl.Abort()

	if err := astreaBandProbe(m, env, syn); err != nil {
		return err
	}
	if err := engineProbe(m, env, syn); err != nil {
		return err
	}
	if err := allocProbe(m, env, name, syn); err != nil {
		return err
	}
	m["dem.sample_ns"] = sampleNs(env, o.seed, o.size(200000, 2000))
	// Size the Monte Carlo run from a first short one, so a fast decoder is
	// timed over ~0.3 s and a slow one is not run for many seconds.
	rate, err := monteCarloShotsPerS(env, name, o.seed, int64(len(syn)))
	if err != nil {
		return err
	}
	if shots := int64(rate * 0.3); !o.quick && shots > int64(len(syn)) {
		if rate, err = monteCarloShotsPerS(env, name, o.seed, shots); err != nil {
			return err
		}
	}
	m["montecarlo.run_shots_per_s"] = rate
	if m["compress.encode_ns"], m["compress.decode_ns"], m["compress.bytes_per_syndrome"], err = codecProbe(syn); err != nil {
		return err
	}
	wc, err := wireProbe(syn)
	if err != nil {
		return err
	}
	m["wire.request_encode_ns"], m["wire.request_parse_ns"] = wc.ReqEncNs, wc.ReqParseNs
	m["wire.result_encode_ns"], m["wire.result_parse_ns"] = wc.ResEncNs, wc.ResParseNs
	m["realtime.hist_add_ns"] = histAddNs(o.size(1000000, 10000))
	return nil
}
