// Command astread is the syndrome-decoding daemon: it serves the wire
// protocol of internal/server over TCP, decoding DEM syndromes with
// per-distance decoder pools, a bounded batched queue with backpressure,
// and per-request deadline accounting against the paper's 1 µs real-time
// budget.
//
// Usage:
//
//	astread [flags]
//
// Flags:
//
//	-listen addr      TCP decode endpoint (default :7717)
//	-http addr        stats endpoint, /stats + expvar /debug/vars (default :7718, "" disables)
//	-distances list   comma-separated code distances to serve (default 3,5,7)
//	-p rate           physical error rate the GWTs are programmed for (default 1e-3)
//	-decoder name     astrea | astrea-g | mwpm | uf | uf-unweighted (default astrea)
//	-queue N          request queue bound; overflow is rejected (default 1024)
//	-batch N          max requests per worker wake-up (default 16)
//	-workers N        queue workers (default GOMAXPROCS); they decode HW > 10
//	                  and non-Astrea pools, while HW ≤ 10 requests on an
//	                  astrea/astrea-g pool are decoded on each connection's reader
//	-deadline dur     default per-request deadline (default 1µs)
//	-max-conns N      concurrent connection cap; excess refused (default 4096, 0 = unlimited)
//	-handshake-timeout dur  Hello exchange bound per connection (default 10s, 0 disables)
//	-idle-timeout dur       reap connections idle this long (default 5m, 0 disables)
//	-write-timeout dur      per-response write bound (default 30s, 0 disables)
//	-drain-timeout dur      SIGTERM drain bound; requests still queued when it
//	                  expires are abandoned and counted (default 10s, 0 = unbounded)
//	-stream-resume-ttl dur  how long a streaming session whose connection
//	                  died stays parked and resumable; expired sessions are
//	                  torn down and their pipelines aborted (default 2m,
//	                  0 disables resume entirely — the FeatureStreamResume
//	                  bit is never granted)
//	-stream-resume-max-sessions N  parked-session cap; parking beyond it
//	                  evicts the oldest parked session (default 64)
//	-stream-resume-max-bytes N     estimated memory retained by parked
//	                  sessions (buffers + retained commits) before oldest-
//	                  first eviction (default 16MiB)
//	-artifact files   comma-separated compiled .astc bundles (astrea compile)
//	                  to hydrate decoder pools from: each pool adopts its
//	                  bundle's model and rebuilds the weight table from it,
//	                  checked against the bundle's fingerprint
//	-artifact-dir dir load every *.astc bundle in a directory; when several
//	                  bundles cover one distance the highest generation wins
//	-artifact-watch dur  re-scan -artifact-dir at this interval and hot-swap
//	                  any served distance for which a strictly newer
//	                  generation has appeared (0 disables; requires
//	                  -artifact-dir)
//
// When artifacts are supplied and -distances is not, the daemon serves
// exactly the artifact operating points; an explicit -distances list is
// served as given, hydrating from artifacts where one matches and building
// inline otherwise. Startup logs each bundle's read time and the time the
// pools took to build their tables, and each pool advertises the artifact's
// fingerprint.
//
// SIGHUP triggers an immediate re-scan of -artifact-dir — drop a freshly
// compiled, higher-generation bundle into the directory and signal the
// daemon to rotate onto it with zero downtime: in-flight requests and open
// streams finish on the generation they started on, new work lands on the
// new tables. A rotation that would change the operating point's shape
// (rounds, basis, detector count) is refused and logged; a recalibrated
// physical error rate is exactly what rotation is for. Note that startup
// still enforces -p against the chosen bundle, so after rotating to a
// recalibrated rate, restart with the matching -p.
//
// The daemon runs until SIGINT/SIGTERM, then drains (bounded by
// -drain-timeout) and prints a final stats snapshot.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "astread:", err)
		os.Exit(1)
	}
}

// options is everything the daemon derives from its command line.
type options struct {
	cfg      server.Config
	listen   string
	httpAddr string
	drain    time.Duration
	// artifactPaths lists .astc bundles to hydrate pools from (the -artifact
	// files plus every *.astc found under -artifact-dir).
	artifactPaths []string
	// artifactDir is the rotation watch directory; watch is the re-scan
	// cadence (0: only SIGHUP triggers a re-scan).
	artifactDir string
	watch       time.Duration
	// distancesSet records whether -distances was given explicitly; when it
	// was not and artifacts are supplied, the artifact operating points
	// define the served set.
	distancesSet bool
}

// buildConfig parses flags into a server configuration plus the listen
// addresses and drain bound; split out for testing. Flags use 0 to mean
// "disabled/unlimited", mapped onto the Config convention where zero means
// default and negative means disabled.
func buildConfig(args []string) (opts options, err error) {
	cfg := &opts.cfg
	fs := flag.NewFlagSet("astread", flag.ContinueOnError)
	fs.StringVar(&opts.listen, "listen", ":7717", "TCP decode endpoint")
	fs.StringVar(&opts.httpAddr, "http", ":7718", "stats endpoint (empty disables)")
	distances := fs.String("distances", "3,5,7", "comma-separated code distances")
	p := fs.Float64("p", 1e-3, "physical error rate")
	fs.StringVar(&cfg.Decoder, "decoder", "astrea", "decoder: astrea, astrea-g, mwpm, uf or uf-unweighted")
	fs.IntVar(&cfg.QueueDepth, "queue", 1024, "request queue bound")
	fs.IntVar(&cfg.BatchSize, "batch", 16, "max requests per worker wake-up")
	fs.IntVar(&cfg.Workers, "workers", 0, "queue workers for HW > 10 and non-Astrea pools; HW ≤ 10 on astrea/astrea-g decodes on each connection's reader (0 = GOMAXPROCS)")
	deadline := fs.Duration("deadline", time.Microsecond, "default per-request deadline")
	maxConns := fs.Int("max-conns", 4096, "concurrent connection cap (0 = unlimited)")
	handshakeTO := fs.Duration("handshake-timeout", 10*time.Second, "handshake bound per connection (0 disables)")
	idleTO := fs.Duration("idle-timeout", 5*time.Minute, "reap connections idle this long (0 disables)")
	writeTO := fs.Duration("write-timeout", 30*time.Second, "per-response write bound (0 disables)")
	resumeTTL := fs.Duration("stream-resume-ttl", 2*time.Minute, "parked streaming sessions kept resumable this long (0 disables resume)")
	resumeMaxSessions := fs.Int("stream-resume-max-sessions", 64, "parked streaming session cap (oldest evicted beyond it)")
	resumeMaxBytes := fs.Int64("stream-resume-max-bytes", 16<<20, "estimated bytes retained by parked sessions before eviction")
	fs.DurationVar(&opts.drain, "drain-timeout", 10*time.Second, "SIGTERM drain bound (0 = unbounded)")
	artifacts := fs.String("artifact", "", "comma-separated compiled .astc bundles to serve from")
	artifactDir := fs.String("artifact-dir", "", "load every *.astc bundle in this directory")
	fs.DurationVar(&opts.watch, "artifact-watch", 0, "re-scan -artifact-dir for newer generations at this interval (0 disables)")
	if err = fs.Parse(args); err != nil {
		return options{}, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "distances" {
			opts.distancesSet = true
		}
	})
	cfg.P = *p
	cfg.DefaultDeadlineNs = uint64(deadline.Nanoseconds())
	cfg.MaxConns = orDisabledInt(*maxConns)
	cfg.HandshakeTimeout = orDisabled(*handshakeTO)
	cfg.IdleTimeout = orDisabled(*idleTO)
	cfg.WriteTimeout = orDisabled(*writeTO)
	cfg.StreamResumeTTL = orDisabled(*resumeTTL)
	cfg.StreamResumeMaxSessions = orDisabledInt(*resumeMaxSessions)
	cfg.StreamResumeMaxBytes = orDisabledInt64(*resumeMaxBytes)
	for _, part := range strings.Split(*distances, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, convErr := strconv.Atoi(part)
		if convErr != nil {
			return options{}, fmt.Errorf("bad distance %q: %w", part, convErr)
		}
		cfg.Distances = append(cfg.Distances, d)
	}
	for _, part := range strings.Split(*artifacts, ",") {
		if part = strings.TrimSpace(part); part != "" {
			opts.artifactPaths = append(opts.artifactPaths, part)
		}
	}
	if *artifactDir != "" {
		found, globErr := filepath.Glob(filepath.Join(*artifactDir, "*.astc"))
		if globErr != nil {
			return options{}, globErr
		}
		if len(found) == 0 {
			return options{}, fmt.Errorf("artifact-dir %s contains no .astc bundles", *artifactDir)
		}
		sort.Strings(found)
		opts.artifactPaths = append(opts.artifactPaths, found...)
		opts.artifactDir = *artifactDir
	}
	if opts.watch > 0 && opts.artifactDir == "" {
		return options{}, fmt.Errorf("-artifact-watch needs an -artifact-dir to watch")
	}
	return opts, nil
}

// loadArtifacts reads and validates every configured bundle, returning them
// keyed by distance. When two bundles cover one distance the strictly
// higher generation wins (a watch directory accumulates recalibrations);
// two at the same generation — or a winner whose p disagrees with the
// configuration — is an operator error worth refusing over, not guessing
// about.
func loadArtifacts(opts *options) (map[int]*artifact.Artifact, error) {
	if len(opts.artifactPaths) == 0 {
		return nil, nil
	}
	arts := make(map[int]*artifact.Artifact, len(opts.artifactPaths))
	loadNs := make(map[int]time.Duration, len(opts.artifactPaths))
	for _, path := range opts.artifactPaths {
		start := time.Now()
		a, err := artifact.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if prev := arts[a.Meta.Distance]; prev != nil {
			if prev.Meta.Generation == a.Meta.Generation {
				return nil, fmt.Errorf("two artifacts for d=%d at generation %d (%s and %s)",
					a.Meta.Distance, a.Meta.Generation, prev.Meta, a.Meta)
			}
			if prev.Meta.Generation > a.Meta.Generation {
				continue
			}
		}
		arts[a.Meta.Distance] = a
		loadNs[a.Meta.Distance] = time.Since(start)
	}
	// Validate and report only the winners: a superseded generation left in
	// the watch directory may carry a stale p without blocking startup.
	for d, a := range arts {
		if a.Meta.P != opts.cfg.P {
			return nil, fmt.Errorf("%s: compiled for p=%g, daemon configured for p=%g (pass a matching -p)",
				a.Meta, a.Meta.P, opts.cfg.P)
		}
		fmt.Fprintf(os.Stderr, "astread: read artifact d=%d (%s, fingerprint %s) in %v; its pool rebuilds the tables from its model\n",
			d, a.Meta, a.Fingerprint, loadNs[d].Round(time.Millisecond))
	}
	if !opts.distancesSet {
		// No explicit -distances: the artifacts define the served set.
		opts.cfg.Distances = opts.cfg.Distances[:0]
		for d := range arts {
			opts.cfg.Distances = append(opts.cfg.Distances, d)
		}
		sort.Ints(opts.cfg.Distances)
	}
	return arts, nil
}

// rescanArtifacts re-reads the watch directory and hot-swaps every served
// distance for which a strictly newer generation has appeared, leaving the
// rest untouched. Unreadable bundles and refused rotations are logged and
// skipped — a bad drop must never take down the generations already
// serving.
func rescanArtifacts(srv *server.Server, dir string) {
	found, err := filepath.Glob(filepath.Join(dir, "*.astc"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "astread: re-scan of %s: %v\n", dir, err)
		return
	}
	sort.Strings(found)
	best := make(map[int]*artifact.Artifact)
	for _, path := range found {
		a, err := artifact.ReadFile(path)
		if err != nil {
			// Possibly a bundle still being copied in; the next re-scan
			// picks it up once it decodes cleanly.
			fmt.Fprintf(os.Stderr, "astread: re-scan: skipping %s: %v\n", path, err)
			continue
		}
		if cur := best[a.Meta.Distance]; cur == nil || a.Meta.Generation > cur.Meta.Generation {
			best[a.Meta.Distance] = a
		}
	}
	gens := srv.Snapshot().Generations
	for d, a := range best {
		gs, ok := gens[strconv.Itoa(d)]
		if !ok {
			continue // distance not served; nothing to swap
		}
		if a.Meta.Generation <= gs.Generation {
			continue // nothing newer than what is already serving
		}
		if a.Fingerprint.String() == gs.Fingerprint {
			// Re-stamped but identical tables: adopt silently would churn
			// pools for nothing, and Rotate refuses it anyway.
			continue
		}
		fp, err := srv.Rotate(server.Rotation{Artifact: a})
		if err != nil {
			fmt.Fprintf(os.Stderr, "astread: rotation d=%d to generation %d refused: %v\n",
				d, a.Meta.Generation, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "astread: rotated d=%d to generation %d (fingerprint %s, p=%g); old generation draining\n",
			d, a.Meta.Generation, fp, a.Meta.P)
	}
}

func orDisabled(d time.Duration) time.Duration {
	if d <= 0 {
		return -1
	}
	return d
}

func orDisabledInt(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

func orDisabledInt64(n int64) int64 {
	if n <= 0 {
		return -1
	}
	return n
}

func run(args []string) error {
	opts, err := buildConfig(args)
	if err != nil {
		return err
	}
	arts, err := loadArtifacts(&opts)
	if err != nil {
		return err
	}
	cfg, listen, httpAddr, drain := opts.cfg, opts.listen, opts.httpAddr, opts.drain
	cfg.Artifacts = arts

	var inline []int
	for _, d := range cfg.Distances {
		if arts[d] == nil {
			inline = append(inline, d)
		}
	}
	if len(inline) > 0 {
		fmt.Fprintf(os.Stderr, "astread: building decoder pools inline (decoder=%s, distances=%v, p=%g)...\n",
			cfg.Decoder, inline, cfg.P)
	}
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	// loadArtifacts logged each bundle's read time above; New builds every
	// pool's tables, from a bundle's model or inline.
	fmt.Fprintf(os.Stderr, "astread: decoder pools ready in %v (%d loaded from artifacts, %d built inline)\n",
		time.Since(start).Round(time.Millisecond), len(arts), len(inline))
	// Print each distance's configuration fingerprint, the digest every
	// result frame carries: a daemon built from a different DEM or weight
	// table, or rotated to a new generation, advertises a different one.
	fps := srv.Fingerprints()
	for _, d := range cfg.Distances {
		if fp, ok := fps[d]; ok {
			fmt.Fprintf(os.Stderr, "astread: fingerprint d=%d %s\n", d, fp)
		}
	}

	if httpAddr != "" {
		expvar.Publish("astread", expvar.Func(func() interface{} { return srv.Snapshot() }))
		mux := http.NewServeMux()
		mux.Handle("/stats", srv.StatsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		go func() {
			if err := http.ListenAndServe(httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "astread: stats endpoint:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "astread: stats on http://%s/stats\n", httpAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(listen) }()
	fmt.Fprintf(os.Stderr, "astread: decoding on %s\n", listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	var watchC <-chan time.Time
	if opts.watch > 0 {
		ticker := time.NewTicker(opts.watch)
		defer ticker.Stop()
		watchC = ticker.C
		fmt.Fprintf(os.Stderr, "astread: watching %s for newer artifact generations every %v\n",
			opts.artifactDir, opts.watch)
	}
serve:
	for {
		select {
		case err := <-errCh:
			return err
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "astread: %v, draining\n", s)
			break serve
		case <-hup:
			if opts.artifactDir == "" {
				fmt.Fprintln(os.Stderr, "astread: SIGHUP, but no -artifact-dir to re-scan")
				continue
			}
			fmt.Fprintf(os.Stderr, "astread: SIGHUP, re-scanning %s\n", opts.artifactDir)
			rescanArtifacts(srv, opts.artifactDir)
		case <-watchC:
			rescanArtifacts(srv, opts.artifactDir)
		}
	}
	// Bounded drain: Close waits for in-flight work, but a wedged peer or a
	// pathological queue must not stall shutdown forever. On timeout the
	// still-queued requests are abandoned and reported, and the process
	// exits anyway (kubelet-style SIGKILL comes next regardless).
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	if drain > 0 {
		select {
		case err := <-done:
			if err != nil {
				return err
			}
		case <-time.After(drain):
			snap := srv.Snapshot()
			abandoned := snap.Accepted - snap.Completed - snap.Panics
			fmt.Fprintf(os.Stderr, "astread: drain timeout (%v) expired, abandoning %d queued request(s)\n",
				drain, abandoned)
		}
	} else if err := <-done; err != nil {
		return err
	}
	out, err := json.MarshalIndent(srv.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
