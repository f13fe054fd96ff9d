package server

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/faultinject"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/stream"
)

// loadEnv applies the operating-point defaults every mode shares (d=5,
// p=1e-3) and resolves the environment the load is sampled from.
func loadEnv(env *montecarlo.Env, distance *int, p *float64) (*montecarlo.Env, error) {
	if *distance == 0 {
		*distance = 5
	}
	if *p <= 0 {
		*p = 1e-3
	}
	if env != nil {
		return env, nil
	}
	return montecarlo.SharedEnv(*distance, *distance, *p)
}

// sampleLoadSyndromes pre-samples n whole-shot syndromes so pacing
// measures the wire and the daemon, not the sampler.
func sampleLoadSyndromes(env *montecarlo.Env, seed uint64, n int) []bitvec.Vec {
	rng := prng.New(seed)
	smp := dem.NewSampler(env.Model)
	buf := bitvec.New(env.Model.NumDetectors)
	out := make([]bitvec.Vec, n)
	for i := range out {
		smp.Sample(rng, buf)
		out[i] = buf.Clone()
	}
	return out
}

// sampleLoadRows pre-samples rounds stream rows: whole shots from the same
// seeded sampler, each split into its per-round rows.
func sampleLoadRows(env *montecarlo.Env, seed uint64, rounds int) []bitvec.Vec {
	width := stream.RowWidth(env)
	detRows := env.Graph.N / width
	shots := sampleLoadSyndromes(env, seed, (rounds+detRows-1)/detRows)
	rows := make([]bitvec.Vec, 0, len(shots)*detRows)
	for _, synd := range shots {
		for r := 0; r < detRows; r++ {
			row := bitvec.New(width)
			for k := 0; k < width; k++ {
				if synd.Get(r*width + k) {
					row.Set(k)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows[:rounds]
}

// loadPacer is the open-loop arrival clock: item i is due at start + i×gap.
type loadPacer struct {
	start time.Time
	gap   time.Duration // 0 = unpaced
}

// startLoadPacer starts the clock now at ratePerSec arrivals per second
// (0 = as fast as the transport accepts).
func startLoadPacer(ratePerSec float64) loadPacer {
	p := loadPacer{start: time.Now()}
	if ratePerSec > 0 {
		p.gap = time.Duration(float64(time.Second) / ratePerSec)
	}
	return p
}

// wait blocks until item i is due. It reports false as soon as stop is
// closed, so a sender never sleeps out its schedule into a connection the
// caller is tearing down; a nil stop never fires.
func (p loadPacer) wait(i int, stop <-chan struct{}) bool {
	if p.gap > 0 {
		if d := time.Until(p.start.Add(time.Duration(i) * p.gap)); d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-stop:
				return false
			case <-t.C:
				return true
			}
		}
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// sinceNs is the clock reading in nanoseconds since start.
func (p loadPacer) sinceNs() int64 { return time.Since(p.start).Nanoseconds() }

// perSec is the rate arithmetic every report shares.
func perSec(n int, elapsedSec float64) float64 {
	if elapsedSec <= 0 {
		return 0
	}
	return float64(n) / elapsedSec
}

// loadAnswer is one accepted answer awaiting local verification.
type loadAnswer struct {
	seq int
	obs uint64
}

// LoadConfig parameterises one request load run.
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
	// transport accepts (closed only by TCP flow control).
	RatePerSec float64
	// DeadlineNs is the per-request real-time budget (0 uses the server
	// default of 1 µs — expect near-total misses over a real network hop,
	// which is precisely the paper's §2 argument).
	DeadlineNs uint64
	// Seed drives the syndrome sampler.
	Seed uint64
	// Verify re-decodes every answered syndrome locally with the named
	// decoder ("astrea", "mwpm", …; default "astrea") and counts
	// observable-prediction mismatches.
	Verify        bool
	VerifyDecoder string

	// env shares a pre-built environment in tests.
	env *montecarlo.Env
}

// LoadReport is the outcome of a request load run.
type LoadReport struct {
	Offered  int
	Accepted int // responses that carried a decode result
	Rejected int // backpressure rejections
	Errored  int // per-request server errors

	// Mismatches counts verified responses whose observable prediction
	// disagreed with the local decoder (Verify only). Only answers signed by
	// the run's own generation are checked; see OtherGeneration.
	Mismatches int
	// VerifyEngine names the exact-matching engine behind the local
	// verification decoder (decoder.EngineOf; empty without Verify), so a
	// clean report states which engine the daemon's answers were checked
	// against — "mwpm" resolves to the dense engine, "mwpm-sparse" to the
	// sparse one.
	VerifyEngine string

	// OtherGeneration counts responses signed by a generation fingerprint
	// the run holds no tables for (the daemon rotated to a new artifact
	// mid-run). They are excluded from Mismatches: the answers come from
	// weights the generator does not hold, so disagreement is expected and
	// benign.
	OtherGeneration int

	// RTTNs holds one client-observed latency (send → response) per
	// accepted response, in arrival order of the responses.
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

	// FramesPerRead is response frames received per socket read that
	// returned data — the client's view of the daemon's write coalescing
	// (the daemon's own ratio is frames_out / flushes on /stats). Near 1
	// means every answer paid for its own write; a pipelined saturating run
	// sees several.
	FramesPerRead float64
	// RequestsPerWrite is request frames sent per client socket write — the
	// client's own coalescing: Send queues, and the queue leaves in one write
	// when the read half is about to block (or a Send finds it blocked). Near
	// 1 means the receiver was always parked, so every Send wrote; a
	// single-goroutine pipeliner sees several.
	RequestsPerWrite float64
}

// ioCounter counts the socket reads that delivered data and the writes.
type ioCounter struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *ioCounter) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *ioCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// RunLoad samples DEM syndromes and drives them through the client path at
// the configured arrival rate: a sender goroutine paces Send calls on one
// pipelined connection while the caller's goroutine drains responses, so
// queueing happens at the daemon, not in the generator.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Shots <= 0 {
		cfg.Shots = 1000
	}
	if cfg.VerifyDecoder == "" {
		cfg.VerifyDecoder = "astrea"
	}
	env, err := loadEnv(cfg.env, &cfg.Distance, &cfg.P)
	if err != nil {
		return nil, err
	}
	syndromes := sampleLoadSyndromes(env, cfg.Seed, cfg.Shots)
	rep := &LoadReport{Offered: cfg.Shots}
	// local re-decodes the answers signed by fp, the generation whose
	// tables the syndromes were sampled against (nil without Verify).
	fp := uint64(decodegraph.FingerprintOf(env.Model, env.GWT))
	var local decoder.Decoder
	var answers []loadAnswer
	if cfg.Verify {
		factory, err := FactoryFor(cfg.VerifyDecoder)
		if err != nil {
			return nil, err
		}
		if local, err = factory(env); err != nil {
			return nil, err
		}
		rep.VerifyEngine = decoder.EngineOf(local)
		answers = make([]loadAnswer, 0, cfg.Shots)
	}

	// The sender is tracked so an early receive-side error cannot leave it
	// pacing into a dead connection: stop is closed and the goroutine
	// joined on every return path. Registered before the dial so the LIFO
	// defer order closes the connection first, unblocking a sender mid-Send.
	var sendWG sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		sendWG.Wait()
	}()
	// Every answer carries the fingerprint of the tables that produced it,
	// so a daemon hot-swapped to a new artifact generation mid-run stays
	// distinguishable from a wrong answer.
	nc, err := net.DialTimeout("tcp", cfg.Addr, DefaultHandshakeTimeout)
	if err != nil {
		return nil, err
	}
	conn := &ioCounter{Conn: nc}
	defer conn.Close()
	client, err := NewClient(conn, cfg.Distance, cfg.Codec)
	if err != nil {
		return nil, err
	}
	handshakeReads, handshakeWrites := conn.reads.Load(), conn.writes.Load()
	if client.NumDetectors() != env.Model.NumDetectors {
		return nil, fmt.Errorf("server: daemon syndrome length %d != local model %d (mismatched noise model?)",
			client.NumDetectors(), env.Model.NumDetectors)
	}

	// Send timestamps are clock-relative nanoseconds stored atomically: the
	// sender and receiver goroutines synchronise only through the daemon.
	sendAtNs := make([]atomic.Int64, cfg.Shots)
	sendErr := make(chan error, 1)
	pacer := startLoadPacer(cfg.RatePerSec)
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		for i, s := range syndromes {
			if !pacer.wait(i, stop) {
				return
			}
			sendAtNs[i].Store(pacer.sinceNs())
			if err := client.Send(uint64(i), cfg.DeadlineNs, s); err != nil {
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
		nowNs := pacer.sinceNs()
		if resp.Seq >= uint64(cfg.Shots) {
			return nil, fmt.Errorf("server: response for unknown seq %d", resp.Seq)
		}
		switch {
		case resp.Rejected:
			rep.Rejected++
			rep.MaxRetryAfterNs = max(rep.MaxRetryAfterNs, resp.RetryAfterNs)
			continue
		case resp.Err != "":
			rep.Errored++
			continue
		}
		rep.Accepted++
		rep.RTTNs = append(rep.RTTNs, float64(nowNs-sendAtNs[resp.Seq].Load()))
		rep.ServerSojournNs = append(rep.ServerSojournNs, float64(resp.SojournNs))
		if resp.DeadlineMiss {
			rep.DeadlineMisses++
		}
		switch {
		case resp.Fingerprint != fp:
			rep.OtherGeneration++
		case cfg.Verify:
			answers = append(answers, loadAnswer{int(resp.Seq), resp.ObsMask})
		}
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}
	rep.ElapsedSec = time.Since(pacer.start).Seconds()
	rep.OfferedPerSec = perSec(rep.Offered, rep.ElapsedSec)
	rep.AchievedPerSec = perSec(rep.Accepted, rep.ElapsedSec)
	// Verification runs after the last answer rather than up front or per
	// answer: only what was actually answered is decoded, and no local
	// decode sits between two socket reads to inflate the next RTT.
	for _, a := range answers {
		if local.Decode(syndromes[a.seq]).ObsPrediction != a.obs {
			rep.Mismatches++
		}
	}
	rep.FramesPerRead = float64(cfg.Shots) / float64(max(conn.reads.Load()-handshakeReads, 1))
	rep.RequestsPerWrite = float64(cfg.Shots) / float64(max(conn.writes.Load()-handshakeWrites, 1))
	return rep, nil
}

// StreamLoadConfig parameterises one streaming load run: an open-loop
// syndrome-round stream pushed at a configurable arrival rate while
// commits are drained concurrently, the measurement matching how a control
// system would actually feed the decoder.
type StreamLoadConfig struct {
	// Addr is the daemon's TCP address.
	Addr string
	// Distance and P select the DEM the rounds are sampled from.
	Distance int
	P        float64
	// Codec is the compress wire ID to negotiate.
	Codec uint8
	// Rounds is the total number of syndrome rounds to stream.
	Rounds int
	// RatePerSec is the open-loop round arrival rate; 0 pushes as fast as
	// the socket accepts. The paper's real-time operating point is one
	// round per µs, i.e. 1e6.
	RatePerSec float64
	// Batch is the number of rounds per StreamRounds frame (default 8).
	Batch int
	// Window carries the requested session parameters (zero = server
	// defaults; the server may clamp — the report echoes resolved values).
	Window StreamOptions
	// Seed drives the syndrome sampler and, in resume mode, the kill
	// schedule.
	Seed uint64

	// Resume turns the run into a resilience measurement: the session is a
	// resumable one behind the run's own connection-killing proxy, which
	// severs every live connection at Kills seeded points in the send
	// schedule (default 3); the session's reconnect loop, tuned by Retry
	// (zero = RetryPolicy defaults), must absorb each one. The report gains
	// reconnect counts, replayed rounds and recovery-time quantiles, and
	// the commit stream is held to the same bit-identity bar as a
	// fault-free run.
	Resume bool
	Kills  int
	Retry  RetryPolicy

	// Verify replays the same rounds through a local pipeline at the
	// server-resolved parameters and counts per-commit mismatches: the
	// wire and the resume layer must add transport and recovery, never
	// approximation. VerifyDecoder names the local decoder ("astrea" by
	// default — match the daemon's).
	Verify        bool
	VerifyDecoder string

	// env shares a pre-built environment in tests.
	env *montecarlo.Env
}

// StreamLoadReport is the outcome of a streaming load run.
type StreamLoadReport struct {
	// Resolved echoes the server-resolved session parameters.
	Resolved StreamOpenAck
	// Rounds is the number of rounds streamed; Windows the commits
	// received; both totals also arrive in Summary and must agree.
	Rounds  int
	Windows int
	// Flag accounting over received commits.
	ForcedCuts     int
	Degraded       int
	DeadlineMisses int
	// Mismatches counts commits that disagreed with the local replay
	// (Verify only): any nonzero value is a wire- or resume-layer bug.
	Mismatches int
	// CommitLatencyNs holds one client-observed latency per commit: last
	// round of the window (first) sent → commit received.
	CommitLatencyNs []float64
	// ServerSojournNs holds the server-reported cut→commit sojourn per
	// commit.
	ServerSojournNs []float64

	// Resume mode only. Kills is the number of scheduled severs that found
	// a live connection; Reconnects the successful re-attaches (warm or
	// cold); ReplayedRounds the sent-but-uncommitted rounds re-sent across
	// all recoveries.
	Kills          int
	Reconnects     int
	ReplayedRounds uint64
	// RecoveryNs holds one sample per recovery: connection-death
	// detection → session re-established (the client-side outage window).
	// Sorted ascending, ready for CDF reporting.
	RecoveryNs []float64

	// Summary is the server's closing aggregate.
	Summary StreamClosed

	ElapsedSec    float64
	RoundsPerSec  float64
	WindowsPerSec float64
	ObsMask       uint64 // cumulative correction (XOR of all commits)

	// RoundsPerWrite is StreamRounds frames sent per client socket write
	// after the open — the stream's own coalescing: rounds queue while the
	// rounds already written hold a due commit, and leave in one write when
	// the receiver is about to block. Near 1 means every SendRounds wrote.
	// Zero in resume mode, whose proxy and reconnects own the writes.
	RoundsPerWrite float64
	// CommitsPerFlush is the daemon's frames_out / flushes over the run,
	// read from /stats snapshots taken around it: how many commit frames
	// each daemon write carried. RunStreamLoad cannot see the daemon's
	// stats and leaves it zero; astrea-loadgen -stats fills it in.
	CommitsPerFlush float64
}

// loadSession is what the stream driver needs of a session; *Stream and
// *ResumingStream both provide it.
type loadSession interface {
	Params() StreamOpenAck
	RowBits() int
	SendRounds(rows []bitvec.Vec) error
	CloseSend() error
	Recv() (StreamEvent, error)
}

// loadKills severs the resume-mode proxy's live connections at seeded
// points in the send schedule. A nil schedule (plain mode) never fires.
type loadKills struct {
	proxy *faultinject.Proxy
	at    []int // ascending round thresholds still to fire
}

// fire severs the live connections once per threshold the sender has
// passed and returns how many severs found a connection to kill.
func (k *loadKills) fire(sent int) (landed int) {
	for k != nil && len(k.at) > 0 && sent >= k.at[0] {
		if k.proxy.KillActive() > 0 {
			landed++
		}
		k.at = k.at[1:]
	}
	return landed
}

// openLoadSession opens the session a stream run drives and returns it
// with what the caller must defer-close, in acquisition order. Plain mode
// is one FeatureStream session straight at the daemon, over a conn that
// counts its writes (returned; nil in resume mode); resume mode interposes
// a connection-killing proxy, opens a resumable session through it and
// returns the kill schedule the sender fires.
func openLoadSession(cfg StreamLoadConfig) (loadSession, *loadKills, *ioCounter, []io.Closer, error) {
	if !cfg.Resume {
		nc, err := net.DialTimeout("tcp", cfg.Addr, DefaultHandshakeTimeout)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		conn := &ioCounter{Conn: nc}
		client, err := NewClientOptions(conn, cfg.Distance, cfg.Codec, ClientOptions{
			Features: FeatureStream | FeatureChecksum,
		})
		if err != nil {
			//lint:allow errwrap teardown of a conn whose handshake failed; the handshake error is the one returned
			nc.Close()
			return nil, nil, nil, nil, err
		}
		st, err := client.OpenStream(cfg.Window)
		if err != nil {
			//lint:allow errwrap teardown of a conn whose open failed; the open error is the one returned
			client.Close()
			return nil, nil, nil, nil, err
		}
		return st, nil, conn, []io.Closer{client}, nil
	}

	proxy, err := faultinject.NewProxy(cfg.Addr, faultinject.Config{Seed: cfg.Seed ^ 0x6B11})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rs, err := NewResumingStream(func() (*Client, error) {
		return DialOptions(proxy.Addr(), cfg.Distance, cfg.Codec, ClientOptions{
			Features: FeatureStream | FeatureStreamResume | FeatureChecksum,
		})
	}, ResumingStreamOptions{Stream: cfg.Window, Retry: cfg.Retry})
	if err != nil {
		//lint:allow errwrap teardown of a proxy nothing went through; the open error is the one returned
		proxy.Close()
		return nil, nil, nil, nil, err
	}
	// Kill thresholds: distinct seeded points in the send schedule, away
	// from the very first batch so the session is established.
	rng := prng.New(cfg.Seed ^ 0xDEAD)
	killAt := map[int]bool{}
	for len(killAt) < cfg.Kills && len(killAt) < cfg.Rounds/2 {
		killAt[cfg.Batch+rng.Intn(cfg.Rounds-cfg.Batch)] = true
	}
	kills := &loadKills{proxy: proxy}
	for v := range killAt {
		kills.at = append(kills.at, v)
	}
	sort.Ints(kills.at)
	return rs, kills, nil, []io.Closer{proxy, rs}, nil
}

// RunStreamLoad opens a streaming session and drives it open-loop: a
// sender goroutine paces rounds while the caller's goroutine drains
// commits, checking on the fly that the commit row ranges partition the
// stream — a dropped or duplicated commit fails the run, chaos, scheduled
// connection kills (cfg.Resume) or not. With Verify the commits must also
// be bit-identical to an uninterrupted local decode.
func RunStreamLoad(cfg StreamLoadConfig) (*StreamLoadReport, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 10_000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.Kills <= 0 {
		cfg.Kills = 3
	}
	env, err := loadEnv(cfg.env, &cfg.Distance, &cfg.P)
	if err != nil {
		return nil, err
	}
	rows := sampleLoadRows(env, cfg.Seed, cfg.Rounds)

	// Registered before the session's closers so the LIFO defer order
	// closes the connection first, unblocking a sender mid-SendRounds
	// before the wait.
	var sendWG sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		sendWG.Wait()
	}()
	st, kills, conn, closers, err := openLoadSession(cfg)
	if err != nil {
		return nil, err
	}
	var openWrites int64
	if conn != nil {
		openWrites = conn.writes.Load()
	}
	for _, c := range closers {
		defer c.Close()
	}
	if width := stream.RowWidth(env); st.RowBits() != width {
		return nil, fmt.Errorf("server: daemon row width %d != local model %d (mismatched noise model?)", st.RowBits(), width)
	}

	rep := &StreamLoadReport{Resolved: st.Params(), Rounds: cfg.Rounds}
	sendAtNs := make([]atomic.Int64, cfg.Rounds)
	sendErr := make(chan error, 1)
	pacer := startLoadPacer(cfg.RatePerSec)
	// roundsFrames is written by the sender and read after sendErr delivers.
	var roundsFrames int64
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		for i := 0; i < len(rows); i += cfg.Batch {
			end := min(i+cfg.Batch, len(rows))
			// Pace to the batch's last round: rounds arrive at the
			// syndrome period, frames amortise them.
			if !pacer.wait(end-1, stop) {
				return
			}
			now := pacer.sinceNs()
			for r := i; r < end; r++ {
				sendAtNs[r].Store(now)
			}
			if err := st.SendRounds(rows[i:end]); err != nil {
				sendErr <- fmt.Errorf("server: stream send at round %d: %w", i, err)
				return
			}
			roundsFrames += int64((end - i + maxStreamRowsPerFrame - 1) / maxStreamRowsPerFrame)
			// Read by the caller only after sendErr delivers.
			rep.Kills += kills.fire(end)
		}
		sendErr <- st.CloseSend()
	}()

	var nextRow uint64
	var gotCommits []StreamCorrections
	for {
		ev, err := st.Recv()
		if err != nil {
			return nil, fmt.Errorf("server: stream died after %d commits: %w", rep.Windows, err)
		}
		if ev.Closed {
			rep.Summary = ev.Summary
			break
		}
		cm := ev.Commit
		nowNs := pacer.sinceNs()
		// The partition invariant is the point of the whole exercise: under
		// chaos, kills or load, a gap, replay or duplicate here is a
		// decode-stream integrity bug, not a performance artifact. WindowSeq
		// contiguity is additionally required of the plain session only: a
		// resumable session orders its commits by row watermark across
		// recoveries.
		if cm.FirstRow != nextRow || cm.RowCount == 0 || (!cfg.Resume && cm.WindowSeq != uint64(rep.Windows)) {
			return nil, fmt.Errorf("server: commit %d violates the stream partition: seq %d row %d count %d (want row %d)",
				rep.Windows, cm.WindowSeq, cm.FirstRow, cm.RowCount, nextRow)
		}
		last := cm.FirstRow + uint64(cm.RowCount) - 1
		if last >= uint64(cfg.Rounds) {
			return nil, fmt.Errorf("server: commit covers row %d beyond the %d streamed", last, cfg.Rounds)
		}
		nextRow += uint64(cm.RowCount)
		rep.Windows++
		rep.ObsMask ^= cm.ObsMask
		gotCommits = append(gotCommits, cm)
		rep.CommitLatencyNs = append(rep.CommitLatencyNs, float64(nowNs-sendAtNs[last].Load()))
		rep.ServerSojournNs = append(rep.ServerSojournNs, float64(cm.SojournNs))
		if cm.Flags&FlagForcedSeam != 0 {
			rep.ForcedCuts++
		}
		if cm.Flags&FlagDegraded != 0 {
			rep.Degraded++
		}
		if cm.Flags&FlagDeadlineMiss != 0 {
			rep.DeadlineMisses++
		}
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}
	rep.ElapsedSec = time.Since(pacer.start).Seconds()
	if nextRow != uint64(cfg.Rounds) {
		return nil, fmt.Errorf("server: commits cover %d of %d rounds", nextRow, cfg.Rounds)
	}
	if rep.Summary.TotalRows != uint64(cfg.Rounds) || rep.Summary.Windows != uint64(rep.Windows) ||
		rep.Summary.ObsMask != rep.ObsMask {
		return nil, fmt.Errorf("server: closing summary %+v disagrees with observed commits (%d windows, obs %#x)",
			rep.Summary, rep.Windows, rep.ObsMask)
	}
	rep.RoundsPerSec = perSec(rep.Rounds, rep.ElapsedSec)
	rep.WindowsPerSec = perSec(rep.Windows, rep.ElapsedSec)
	if conn != nil {
		rep.RoundsPerWrite = float64(roundsFrames) / float64(max(conn.writes.Load()-openWrites, 1))
	}
	if rs, ok := st.(*ResumingStream); ok {
		rep.Reconnects = rs.Reconnects()
		rep.ReplayedRounds = rs.ReplayedRounds()
		for _, d := range rs.Recoveries() {
			rep.RecoveryNs = append(rep.RecoveryNs, float64(d.Nanoseconds()))
		}
		sort.Float64s(rep.RecoveryNs)
	}

	if cfg.Verify {
		ack := rep.Resolved
		local, _, err := stream.DecodeClosed(stream.Config{
			Env:          env,
			Decoder:      cfg.VerifyDecoder,
			WindowRounds: int(ack.WindowRounds),
			GapRounds:    int(ack.GapRounds),
			PadRounds:    int(ack.PadRounds),
			RowBudgetNs:  float64(ack.RowBudgetNs),
			MaxInflight:  int(ack.MaxInflight),
		}, rows)
		if err != nil {
			return nil, err
		}
		if len(local) != len(gotCommits) {
			rep.Mismatches = rep.Windows
		} else {
			for i, cm := range gotCommits {
				want := local[i]
				if cm.FirstRow != want.FirstRow || int(cm.RowCount) != want.RowCount || cm.ObsMask != want.ObsMask {
					rep.Mismatches++
				}
			}
		}
	}
	return rep, nil
}
