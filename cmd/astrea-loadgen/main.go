// Command astrea-loadgen drives an astread daemon with DEM-sampled
// syndromes at a configurable open-loop arrival rate and reports a
// Figure 3-style latency CDF plus achieved-vs-offered throughput — the
// paper's "can software MWPM keep up with one syndrome per µs?" experiment,
// re-measured end-to-end over a real network hop.
//
// Usage:
//
//	astrea-loadgen [flags]
//
// Flags:
//
//	-addr host:port   daemon address (default 127.0.0.1:7717)
//	-d N              code distance (default 5)
//	-p rate           physical error rate for the syndrome sampler (default 1e-3)
//	-codec name       dense | sparse | rice (default sparse)
//	-n N              syndromes to offer (default 10000)
//	-rate R           arrival rate per second; 0 = as fast as possible (default 0)
//	-deadline dur     per-request deadline; 0 = server default of 1µs (default 0)
//	-seed N           sampler seed (default 2023)
//	-verify           re-decode locally and count mismatches (default true)
//	-verify-decoder   local decoder for -verify (default astrea)
//	-chaos            route traffic through an in-process fault-injecting
//	                  proxy (latency spikes, corruption, short reads,
//	                  partial writes, disconnects) — a chaos smoke test
//	                  against a live daemon (default false)
//	-chaos-seed N     fault schedule seed for -chaos (default 1)
//	-stats URL        the daemon's /stats endpoint (astread -http); the
//	                  request report then adds the share of this run's
//	                  requests the daemon answered inline on the
//	                  connection's reader rather than through its queue,
//	                  and the stream report the daemon's frames per write
//
// Streaming mode (windowed decode over an open-ended round stream):
//
//	-stream           open a FeatureStream session and push syndrome ROUNDS
//	                  (not whole shots) open-loop, reporting windows/sec and
//	                  a commit-latency CDF; -n counts rounds, -rate paces
//	                  rounds per second (1e6 = the paper's 1 µs period)
//	-stream-batch N   rounds per wire frame (default 8)
//	-window N         requested window cap in rounds (0 = server default)
//	-gap N            requested quiet-gap cut length (0 = provably safe)
//	-pad N            requested seam padding in rounds (0 = server default)
//	-inflight N       requested commit backlog in windows (0 = default)
//
// Stream-resume mode (resilience measurement):
//
//	-stream-resume    like -stream, but through a resumable session whose
//	                  connection is severed at -stream-kills scheduled
//	                  points; reports reconnect count, replayed rounds and
//	                  a recovery-time CDF. The commit stream must still be
//	                  bit-identical to an uninterrupted run (-verify).
//	-stream-kills N   scheduled connection kills (default 3)
//
// Exit status is non-zero if any verified response disagrees with the
// local decoder.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"time"

	"astrea/internal/compress"
	"astrea/internal/faultinject"
	"astrea/internal/report"
	"astrea/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "astrea-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("astrea-loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7717", "daemon address")
	d := fs.Int("d", 5, "code distance")
	p := fs.Float64("p", 1e-3, "physical error rate")
	codecName := fs.String("codec", "sparse", "syndrome codec: dense, sparse or rice")
	n := fs.Int("n", 10_000, "syndromes to offer")
	rate := fs.Float64("rate", 0, "arrival rate per second (0 = unpaced)")
	deadline := fs.Duration("deadline", 0, "per-request deadline (0 = server default)")
	seed := fs.Uint64("seed", 2023, "sampler seed")
	verify := fs.Bool("verify", true, "re-decode locally and count mismatches")
	verifyDecoder := fs.String("verify-decoder", "astrea", "local decoder for -verify")
	chaos := fs.Bool("chaos", false, "route traffic through a fault-injecting proxy")
	chaosSeed := fs.Uint64("chaos-seed", 1, "fault schedule seed for -chaos")
	statsURL := fs.String("stats", "", "the daemon's /stats URL; adds its answered-inline share (requests) or frames per write (stream) to the report")
	streamMode := fs.Bool("stream", false, "streaming mode: push syndrome rounds through a windowed session")
	streamBatch := fs.Int("stream-batch", 8, "streaming mode: rounds per wire frame")
	windowRounds := fs.Int("window", 0, "streaming mode: requested window cap in rounds (0 = server default)")
	gapRounds := fs.Int("gap", 0, "streaming mode: requested quiet-gap cut length (0 = provably safe)")
	padRounds := fs.Int("pad", 0, "streaming mode: requested seam padding in rounds (0 = server default)")
	inflight := fs.Int("inflight", 0, "streaming mode: requested commit backlog in windows (0 = default)")
	streamResume := fs.Bool("stream-resume", false, "resilience mode: resumable session with scheduled connection kills")
	streamKills := fs.Int("stream-kills", 3, "stream-resume mode: scheduled connection kills")
	if err := fs.Parse(args); err != nil {
		return err
	}
	codecID, err := compress.IDByName(*codecName)
	if err != nil {
		return err
	}
	// Mode conflicts are settled before anything dials or listens.
	streaming := *streamMode || *streamResume
	switch {
	case *chaos && *streamResume:
		return fmt.Errorf("-chaos and -stream-resume are mutually exclusive; resume mode interposes its own connection-killing proxy")
	case streaming && deadline.Nanoseconds() > math.MaxUint32:
		// The stream row budget travels as a uint32 of nanoseconds; a larger
		// -deadline would silently wrap (5s → 705ms).
		return fmt.Errorf("-deadline %v exceeds the stream row budget limit of %v (%d ns)",
			*deadline, time.Duration(math.MaxUint32), uint32(math.MaxUint32))
	}
	load := server.LoadConfig{
		Addr:          *addr,
		Distance:      *d,
		P:             *p,
		Codec:         codecID,
		Shots:         *n,
		RatePerSec:    *rate,
		DeadlineNs:    uint64(deadline.Nanoseconds()),
		Seed:          *seed,
		Verify:        *verify,
		VerifyDecoder: *verifyDecoder,
	}

	if *chaos {
		proxy, err := faultinject.NewProxy(*addr, faultinject.Config{
			Seed:       *chaosSeed,
			StallP:     0.02,
			StallMin:   100 * time.Microsecond,
			StallMax:   2 * time.Millisecond,
			CorruptP:   0.005,
			DropP:      0.002,
			PartialP:   0.005,
			ShortReadP: 0.05,
		})
		if err != nil {
			return err
		}
		defer proxy.Close()
		load.Addr = proxy.Addr()
		fmt.Fprintf(os.Stderr, "astrea-loadgen: chaos proxy on %s (seed=%d)\n", load.Addr, *chaosSeed)
	}

	if streaming {
		scfg := server.StreamLoadConfig{
			Addr:       load.Addr,
			Distance:   *d,
			P:          *p,
			Codec:      codecID,
			Rounds:     *n,
			RatePerSec: *rate,
			Batch:      *streamBatch,
			Window: server.StreamOptions{
				WindowRounds: *windowRounds,
				GapRounds:    *gapRounds,
				PadRounds:    *padRounds,
				RowBudgetNs:  uint32(deadline.Nanoseconds()),
				MaxInflight:  *inflight,
			},
			Seed:          *seed,
			Resume:        *streamResume,
			Kills:         *streamKills,
			Verify:        *verify,
			VerifyDecoder: *verifyDecoder,
		}
		kills := ""
		if *streamResume {
			kills = fmt.Sprintf(" with %d scheduled connection kills", *streamKills)
		}
		var before server.Snapshot
		if *statsURL != "" {
			if before, err = daemonStats(*statsURL); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "astrea-loadgen: streaming %d d=%d rounds to %s%s (codec=%s, rate=%s, batch=%d)\n",
			*n, *d, *addr, kills, *codecName, rateLabel(*rate), *streamBatch)
		rep, err := server.RunStreamLoad(scfg)
		if err != nil && *chaos {
			scfg.Addr, scfg.Rounds, scfg.RatePerSec = *addr, 2000, 0
			rep, err = probeAfterChaos(err, func() (*server.StreamLoadReport, error) { return server.RunStreamLoad(scfg) })
		}
		if err != nil {
			return err
		}
		if *statsURL != "" {
			after, err := daemonStats(*statsURL)
			if err != nil {
				return err
			}
			rep.CommitsPerFlush = float64(after.FramesOut-before.FramesOut) / float64(max(after.Flushes-before.Flushes, 1))
		}
		return renderStream(rep, scfg)
	}

	var before server.Snapshot
	if *statsURL != "" {
		if before, err = daemonStats(*statsURL); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "astrea-loadgen: offering %d d=%d syndromes to %s (codec=%s, rate=%s)\n",
		*n, *d, *addr, *codecName, rateLabel(*rate))
	rep, err := server.RunLoad(load)
	if err != nil && *chaos {
		load.Addr, load.Shots, load.RatePerSec = *addr, 100, 0
		rep, err = probeAfterChaos(err, func() (*server.LoadReport, error) { return server.RunLoad(load) })
	}
	if err != nil {
		return err
	}
	var inline *inlineShare
	if *statsURL != "" {
		after, err := daemonStats(*statsURL)
		if err != nil {
			return err
		}
		inline = &inlineShare{inline: after.Inline - before.Inline, accepted: after.Accepted - before.Accepted}
	}
	return renderRequests(rep, load, inline)
}

// inlineShare is how many of a run's accepted requests the daemon answered
// inline, read as the difference of two /stats snapshots around the run.
type inlineShare struct{ inline, accepted int64 }

// daemonStats fetches one snapshot from a daemon's /stats endpoint.
func daemonStats(url string) (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return snap, fmt.Errorf("reading daemon stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("reading daemon stats: %s from %s", resp.Status, url)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("reading daemon stats from %s: %w", url, err)
	}
	return snap, nil
}

// probeAfterChaos handles a run that -chaos severed. The severed connection
// IS the injected fault, not a failed run; the smoke-test question is
// whether the daemon survived it, so probe runs a short fault-free load
// straight at the real address and its report stands in for the run's.
func probeAfterChaos[R any](severed error, probe func() (R, error)) (R, error) {
	fmt.Fprintf(os.Stderr, "astrea-loadgen: chaos severed the connection (%v); probing the daemon directly\n", severed)
	rep, err := probe()
	if err != nil {
		return rep, fmt.Errorf("daemon did not survive the chaos run: %w", err)
	}
	fmt.Fprintln(os.Stderr, "astrea-loadgen: daemon survived; reporting the post-chaos probe")
	return rep, nil
}

func rateLabel(rate float64) string {
	if rate <= 0 {
		return "unpaced"
	}
	return fmt.Sprintf("%g/s", rate)
}

// reportWriter prints a report's sections to stdout, a blank line between
// them, and keeps the first write error.
type reportWriter struct {
	sections int
	err      error
}

func (w *reportWriter) section(write func(io.Writer) error) {
	if w.err != nil {
		return
	}
	if w.sections > 0 {
		fmt.Fprintln(os.Stdout)
	}
	w.sections++
	w.err = write(os.Stdout)
}

func (w *reportWriter) cdf(title string, samplesNs []float64, budgetNs float64) {
	w.section(func(out io.Writer) error { return report.CDF(out, title, samplesNs, budgetNs) })
}

// renderRequests prints a request-mode report and applies the
// zero-mismatch gate. A non-nil inline adds the daemon's answered-inline
// row.
func renderRequests(rep *server.LoadReport, cfg server.LoadConfig, inline *inlineShare) error {
	var out reportWriter
	budget := float64(cfg.DeadlineNs)
	if budget == 0 {
		budget = 1000 // server default: the 1 µs window
	}

	t := report.Table{
		Title:   "astread load report",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("offered", rep.Offered)
	t.AddRow("accepted", rep.Accepted)
	t.AddRow("rejected (backpressure)", rep.Rejected)
	t.AddRow("errored", rep.Errored)
	t.AddRow("offered/s", rep.OfferedPerSec)
	t.AddRow("achieved/s", rep.AchievedPerSec)
	if rep.FramesPerRead > 0 {
		t.AddRow("response frames per socket read", fmt.Sprintf("%.2f", rep.FramesPerRead))
	}
	if rep.RequestsPerWrite > 0 {
		t.AddRow("request frames per client write", fmt.Sprintf("%.2f", rep.RequestsPerWrite))
	}
	if inline != nil {
		t.AddRow("answered inline (daemon)", fmt.Sprintf("%.1f%% (%d of %d accepted)",
			100*float64(inline.inline)/float64(max(inline.accepted, 1)), inline.inline, inline.accepted))
	}
	t.AddRow("deadline misses (server)", fmt.Sprintf("%d (%.2f%% of accepted)",
		rep.DeadlineMisses, 100*float64(rep.DeadlineMisses)/float64(max(rep.Accepted, 1))))
	if rep.Rejected > 0 {
		t.AddRow("max retry-after", time.Duration(rep.MaxRetryAfterNs).String())
	}
	if cfg.Verify {
		t.AddRow("verified mismatches", rep.Mismatches)
		t.AddRow("verify engine", rep.VerifyEngine)
	}
	if rep.OtherGeneration > 0 {
		t.AddRow("other-generation answers (unverified)", rep.OtherGeneration)
	}
	out.section(t.Write)
	if rep.OtherGeneration > 0 {
		out.section(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "note: the daemon rotated artifacts mid-run; %d answers came from a\n"+
				"generation this generator holds no tables for and were not verified.\n", rep.OtherGeneration)
			return err
		})
	}

	out.cdf("client round-trip latency", rep.RTTNs, budget)
	out.cdf("server-side sojourn (arrival→decode)", rep.ServerSojournNs, budget)
	if out.err != nil {
		return out.err
	}
	if rep.Mismatches > 0 {
		return fmt.Errorf("%d responses disagree with the local %s decoder", rep.Mismatches, cfg.VerifyDecoder)
	}
	return nil
}

// renderStream prints a stream-mode report and applies the zero-mismatch
// gate; a resume run appends its recovery rows and CDF.
func renderStream(rep *server.StreamLoadReport, cfg server.StreamLoadConfig) error {
	var out reportWriter
	t := report.Table{
		Title:   "astread streaming load report",
		Headers: []string{"metric", "value"},
	}
	if cfg.Resume {
		t.Title = "astread stream-resume resilience report"
	}
	t.AddRow("rounds streamed", rep.Rounds)
	t.AddRow("windows committed", rep.Windows)
	t.AddRow("forced cuts", rep.ForcedCuts)
	t.AddRow("degraded (fallback decode)", rep.Degraded)
	if cfg.Resume {
		t.AddRow("connection kills landed", rep.Kills)
		t.AddRow("reconnects", rep.Reconnects)
		t.AddRow("rounds replayed", rep.ReplayedRounds)
	}
	t.AddRow("rounds/s", rep.RoundsPerSec)
	t.AddRow("windows/s", rep.WindowsPerSec)
	if rep.RoundsPerWrite > 0 {
		t.AddRow("rounds frames per client write", fmt.Sprintf("%.2f", rep.RoundsPerWrite))
	}
	if rep.CommitsPerFlush > 0 {
		t.AddRow("frames per daemon write (/stats)", fmt.Sprintf("%.2f", rep.CommitsPerFlush))
	}
	t.AddRow("window cap / gap / pad", fmt.Sprintf("%d / %d / %d rounds",
		rep.Resolved.WindowRounds, rep.Resolved.GapRounds, rep.Resolved.PadRounds))
	t.AddRow("row budget", time.Duration(rep.Resolved.RowBudgetNs).String())
	t.AddRow("deadline misses (server)", fmt.Sprintf("%d (%.2f%% of commits)",
		rep.DeadlineMisses, 100*float64(rep.DeadlineMisses)/float64(max(rep.Windows, 1))))
	t.AddRow("cumulative correction", fmt.Sprintf("%#x", rep.ObsMask))
	if cfg.Verify {
		t.AddRow("verified mismatches", rep.Mismatches)
	}
	out.section(t.Write)
	// The commit-latency budget scales with the window height: a window of
	// R rounds is on time within R × RowBudgetNs of its cut.
	budget := float64(rep.Resolved.RowBudgetNs) * float64(rep.Resolved.WindowRounds)
	out.cdf("commit latency (last round sent → commit received)", rep.CommitLatencyNs, budget)
	out.cdf("server-side commit sojourn (cut → commit)", rep.ServerSojournNs, budget)
	if cfg.Resume {
		out.cdf("recovery time (connection death → session re-established)", rep.RecoveryNs, 0)
	}
	if out.err != nil {
		return out.err
	}
	if rep.Mismatches > 0 {
		return fmt.Errorf("%d commits disagree with the local windowed %s decode", rep.Mismatches, cfg.VerifyDecoder)
	}
	return nil
}
