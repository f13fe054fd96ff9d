// Package cluster implements a replica-aware decode client for fleets of
// astread daemons. A Fleet pools connections to N endpoints and layers the
// availability mechanics a single server.Client lacks: per-replica health
// probing with consecutive-failure ejection and half-open recovery, a
// circuit breaker per endpoint, deadline-aware failover (an unanswered
// request is re-sent to the next healthy replica), and optional hedged
// requests (after a latency-percentile delay a second replica races the
// first; the earliest answer wins).
//
// Correctness guard: replicas must agree on the decoding configuration
// before their answers may be mixed. Every handshake carries the server's
// decodegraph.Fingerprint — a stable digest of the detector error model
// and the quantised Global Weight Table for the negotiated distance — and
// a replica advertising a different digest than the fleet's is permanently
// quarantined. A fingerprint mismatch means the two servers can return
// *different corrections for the same syndrome*, which no amount of
// retrying repairs; loud refusal is the only safe behaviour.
//
// The one sanctioned exception is an artifact rotation: during a staged
// rollout (BeginTransition … CompleteTransition/AbortTransition) the
// fleet's accepted window temporarily widens to {new, previous}, so
// replicas on either side of the upgrade keep serving. A digest outside
// even that window sheds the replica transiently ("transition" state,
// re-checked by the prober) rather than permanently, because mid-rotation
// skew is expected to converge. StageRollout drives the whole sequence —
// replica-by-replica apply, a regression gate over deadline-miss and retry
// rates, and automatic rollback — on top of these primitives.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/server"
)

// Sentinel errors surfaced by Fleet.Decode.
var (
	// ErrFingerprintMismatch marks a replica whose advertised decoding
	// configuration disagrees with the fleet's; the replica is quarantined.
	ErrFingerprintMismatch = errors.New("cluster: replica decoding-configuration fingerprint mismatch")
	// ErrTransitionMismatch marks a replica whose advertised generation
	// fell outside the fleet's accepted fingerprint window during an
	// artifact rotation. Unlike ErrFingerprintMismatch the shed is
	// transient: the prober re-checks the replica and readmits it once its
	// digest is back inside the window.
	ErrTransitionMismatch = errors.New("cluster: replica generation outside the rotation transition window")
	// ErrNoReplicas means every replica is ejected (breaker open) or
	// quarantined and no attempt could be made.
	ErrNoReplicas = errors.New("cluster: no healthy replica available")
	// ErrExhausted wraps the last failure after every failover attempt.
	ErrExhausted = errors.New("cluster: every replica attempt failed")

	errFleetClosed = errors.New("cluster: fleet is closed")
)

// Config parameterises a Fleet.
type Config struct {
	// Addrs lists the replica endpoints. At least one is required.
	Addrs []string
	// Distance is the code distance to negotiate. Default 5.
	Distance int
	// CodecID is the syndrome codec wire ID (compress.IDDense/…).
	CodecID uint8
	// Client tunes the per-connection stream options. The Fleet forces
	// FeatureProbe (it needs Ping); Client.CallTimeout is the failover trigger — a replica
	// that holds a request longer than this loses it to the next one.
	Client server.ClientOptions

	// ConnsPerReplica bounds the idle connections parked per replica
	// (borrowing beyond it dials extra connections that are closed instead
	// of parked on return). Default 2.
	ConnsPerReplica int
	// HealthInterval is the background probe period: each tick pings one
	// parked connection per replica (dialing one if the replica has no
	// connections at all) and runs half-open trials for ejected replicas.
	// Default 250ms; negative disables the prober.
	HealthInterval time.Duration
	// FailThreshold is the consecutive-failure count that ejects a replica
	// (opens its breaker). Default 3.
	FailThreshold int
	// OpenTimeout is how long an ejected replica rests before one half-open
	// trial request is admitted. Default 1s.
	OpenTimeout time.Duration
	// MaxAttempts bounds the replicas tried per Decode (failover).
	// Default len(Addrs); 1 disables failover.
	MaxAttempts int

	// Hedge races a second replica when the first has not answered within
	// the hedge delay, cancelling whichever loses. It trades duplicate work
	// for tail latency.
	Hedge bool
	// HedgeAfter is the hedge delay used until enough responses have been
	// observed to estimate one (the delay then adapts to ~p95 of recent
	// round trips). Default 2ms.
	HedgeAfter time.Duration

	// ExpectedFingerprint pins the decoding-configuration digest replicas
	// must advertise. Zero adopts the first successfully handshaken
	// replica's digest as the fleet's.
	ExpectedFingerprint decodegraph.Fingerprint
}

func (c *Config) applyDefaults() {
	if c.Distance == 0 {
		c.Distance = 5
	}
	if c.ConnsPerReplica <= 0 {
		c.ConnsPerReplica = 2
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = len(c.Addrs)
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 2 * time.Millisecond
	}
}

// rttWindow sizes the ring of recent round trips the hedge delay adapts
// to; minHedgeSamples gates adaptation until the estimate is meaningful.
const (
	rttWindow       = 64
	minHedgeSamples = 8
	minHedgeDelay   = 50 * time.Microsecond
)

// Fleet is a replica-aware decode client. All methods are safe for
// concurrent use; Decode may be called from many goroutines at once (each
// borrows its own connection).
type Fleet struct {
	cfg        Config
	clientOpts server.ClientOptions
	reps       []*replica
	rr         atomic.Uint64 // round-robin cursor

	mu sync.Mutex
	// accepted is the fingerprint window replicas must advertise into:
	// one digest wide in steady state (accepted[0] is the fleet's primary),
	// two wide — {next, previous} — during a rotation transition. Empty
	// until the first handshake (or a configured pin) adopts a digest.
	accepted []decodegraph.Fingerprint
	// prev remembers the pre-transition primary so AbortTransition can
	// restore it; transition marks the window as widened.
	prev       decodegraph.Fingerprint
	transition bool
	rtts       [rttWindow]time.Duration
	rttN       int
	closed     bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// result is one attempt's outcome, raced over buffered channels so a
// hedged loser never blocks its goroutine.
type result struct {
	resp server.Response
	err  error
}

// New builds a Fleet. No connection is made until the first Decode or
// probe tick; fingerprint verification therefore happens at each replica's
// first handshake, not here.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: no replica addresses")
	}
	cfg.applyDefaults()
	opts := cfg.Client
	opts.Features |= server.FeatureProbe
	f := &Fleet{cfg: cfg, clientOpts: opts, stop: make(chan struct{})}
	if cfg.ExpectedFingerprint != 0 {
		f.accepted = []decodegraph.Fingerprint{cfg.ExpectedFingerprint}
	}
	for _, a := range cfg.Addrs {
		f.reps = append(f.reps, newReplica(a, &f.cfg))
	}
	if f.cfg.HealthInterval > 0 {
		f.wg.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Fingerprint reports the fleet's primary decoding-configuration digest;
// ok is false until a replica has completed a handshake (or a pin was
// configured). During a transition the primary is the rollout's target.
func (f *Fleet) Fingerprint() (decodegraph.Fingerprint, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.accepted) == 0 {
		return 0, false
	}
	return f.accepted[0], true
}

// AcceptedFingerprints snapshots the accepted window, primary first: one
// digest in steady state, {next, previous} mid-transition.
func (f *Fleet) AcceptedFingerprints() []decodegraph.Fingerprint {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]decodegraph.Fingerprint, len(f.accepted))
	copy(out, f.accepted)
	return out
}

// InTransition reports whether the accepted window is widened for a
// staged rollout.
func (f *Fleet) InTransition() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.transition
}

// BeginTransition opens a rotation transition window: the accepted set
// widens to {next, current} so replicas on either side of a staged
// artifact rollout keep serving, and next becomes the fleet's primary
// digest immediately. Mixing the two generations' answers is sound
// because a rotation preserves the operating point's shape — the new
// tables are a recalibration of the same code, not a different one; the
// server enforces exactly that invariant before it will hot-swap.
func (f *Fleet) BeginTransition(next decodegraph.Fingerprint) error {
	if next == 0 {
		return errors.New("cluster: transition to the zero fingerprint")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.transition {
		return fmt.Errorf("cluster: a transition to %s is already open", f.accepted[0])
	}
	if len(f.accepted) == 0 {
		return errors.New("cluster: no fingerprint adopted yet, nothing to transition from")
	}
	if next == f.accepted[0] {
		return fmt.Errorf("cluster: fleet already runs %s", next)
	}
	f.prev = f.accepted[0]
	f.accepted = []decodegraph.Fingerprint{next, f.prev}
	f.transition = true
	return nil
}

// CompleteTransition narrows the accepted window to the rollout's target
// alone and gives every transition-shed replica a fresh re-check under
// the settled window. Call it once every replica advertises the new
// generation. No-op outside a transition.
func (f *Fleet) CompleteTransition() {
	f.mu.Lock()
	if !f.transition {
		f.mu.Unlock()
		return
	}
	f.accepted = f.accepted[:1]
	f.prev = 0
	f.transition = false
	f.mu.Unlock()
	f.healTransitioned()
}

// AbortTransition restores the pre-transition digest as the sole accepted
// one and re-checks transition-shed replicas, undoing BeginTransition.
// Call it only after every already-rotated replica has been reverted:
// once the window narrows, a replica still advertising the abandoned
// generation is permanently quarantined on next contact. No-op outside a
// transition.
func (f *Fleet) AbortTransition() {
	f.mu.Lock()
	if !f.transition {
		f.mu.Unlock()
		return
	}
	f.accepted = []decodegraph.Fingerprint{f.prev}
	f.prev = 0
	f.transition = false
	f.mu.Unlock()
	f.healTransitioned()
}

// healTransitioned clears every transition shed after the accepted window
// changed; the replicas' next contact re-runs the guard under the new
// window (and re-sheds or quarantines if still divergent).
func (f *Fleet) healTransitioned() {
	for _, rep := range f.reps {
		rep.clearTransition()
	}
}

func (f *Fleet) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// adoptFingerprint verifies a freshly handshaken connection's digest
// against the fleet's accepted window, adopting it when the fleet has
// none yet. A digest outside the window is a permanent mismatch
// (ErrFingerprintMismatch) in steady state, a transient one
// (ErrTransitionMismatch) while a rotation transition is open.
func (f *Fleet) adoptFingerprint(r *replica, c *server.Client) error {
	got := decodegraph.Fingerprint(c.Fingerprint())
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.accepted) == 0 {
		f.accepted = []decodegraph.Fingerprint{got}
		return nil
	}
	for _, want := range f.accepted {
		if got == want {
			return nil
		}
	}
	if f.transition {
		return fmt.Errorf("%w: replica %s advertises %s, outside the window {%s, %s}",
			ErrTransitionMismatch, r.addr, got, f.accepted[0], f.accepted[1])
	}
	return fmt.Errorf("%w: replica %s advertises %s, fleet expects %s",
		ErrFingerprintMismatch, r.addr, got, f.accepted[0])
}

// fingerprintAccepted reports whether a result-carried digest is inside
// the accepted window.
func (f *Fleet) fingerprintAccepted(fp decodegraph.Fingerprint) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, want := range f.accepted {
		if fp == want {
			return true
		}
	}
	return false
}

// vetConn runs the fingerprint guard on a freshly handshaken connection
// and settles the replica on refusal: permanent mismatches quarantine,
// transition-window mismatches shed transiently; a pass heals a
// transition-shed replica. The refused connection is closed.
func (f *Fleet) vetConn(r *replica, c *server.Client) error {
	err := f.adoptFingerprint(r, c)
	if err == nil {
		r.clearTransition()
		return nil
	}
	//lint:allow errwrap teardown of a conn whose fingerprint was refused; the mismatch error is the one returned
	c.Close()
	if errors.Is(err, ErrTransitionMismatch) {
		r.markTransition(err.Error())
	} else {
		r.quarantine(err.Error())
	}
	return err
}

// configFault reports a fingerprint-classification failure: the replica's
// shed state was already settled by vetConn (or the per-result guard), so
// the circuit breaker must not also count the attempt as a transport
// fault.
func configFault(err error) bool {
	return errors.Is(err, ErrFingerprintMismatch) || errors.Is(err, ErrTransitionMismatch)
}

// pick round-robins to the next admitted replica, skipping exclude (the
// hedge primary). trial marks a half-open admission the caller must settle.
func (f *Fleet) pick(exclude *replica) (rep *replica, trial bool) {
	n := len(f.reps)
	start := int(f.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		r := f.reps[(start+i)%n]
		if r == exclude {
			continue
		}
		if ok, tr := r.admit(); ok {
			return r, tr
		}
	}
	return nil, false
}

// recordRTT feeds the hedge-delay estimator.
func (f *Fleet) recordRTT(d time.Duration) {
	f.mu.Lock()
	f.rtts[f.rttN%rttWindow] = d
	f.rttN++
	f.mu.Unlock()
}

// hedgeDelay is ~p95 of the recent round trips, or the configured
// HedgeAfter until enough samples exist.
func (f *Fleet) hedgeDelay() time.Duration {
	f.mu.Lock()
	n := f.rttN
	if n > rttWindow {
		n = rttWindow
	}
	if f.rttN < minHedgeSamples {
		f.mu.Unlock()
		return f.cfg.HedgeAfter
	}
	s := make([]time.Duration, n)
	copy(s, f.rtts[:n])
	f.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := s[len(s)*95/100]
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d
}

// attempt runs one request against one replica, settling the breaker and
// the connection pool.
func (f *Fleet) attempt(rep *replica, trial bool, seq, deadlineNs uint64, s bitvec.Vec) (server.Response, error) {
	rep.requests.Add(1)
	c, err := rep.get(f)
	if err != nil {
		rep.failures.Add(1)
		if !configFault(err) && !errors.Is(err, errFleetClosed) {
			rep.onFail(trial)
		}
		return server.Response{}, err
	}
	start := time.Now()
	resp, err := c.Decode(seq, deadlineNs, s)
	if err != nil {
		// Transport fault mid-call: the stream state is unrecoverable, so
		// the connection is severed and the request fails over.
		rep.discard(c)
		rep.failures.Add(1)
		rep.onFail(trial)
		return server.Response{}, err
	}
	if resp.Seq != seq {
		// A response for a different request on a synchronous stream means
		// the stream is corrupted (or the peer is misbehaving) — treat it
		// exactly like a transport fault.
		rep.discard(c)
		rep.failures.Add(1)
		rep.onFail(trial)
		return server.Response{}, fmt.Errorf("cluster: replica %s answered seq %d for request %d", rep.addr, resp.Seq, seq)
	}
	if !resp.Rejected && resp.Err == "" &&
		!f.fingerprintAccepted(decodegraph.Fingerprint(resp.Fingerprint)) {
		// The replica hot-swapped generations mid-connection and this
		// answer came from tables outside the accepted window; it must not
		// reach the caller. The cause is a rotation — inherently transient —
		// so the replica is transition-shed rather than quarantined: the
		// prober's next fresh handshake either heals it (the new digest is
		// accepted by then) or escalates to permanent quarantine.
		err := fmt.Errorf("%w: replica %s answered from generation %s",
			ErrTransitionMismatch, rep.addr, decodegraph.Fingerprint(resp.Fingerprint))
		rep.discard(c)
		rep.failures.Add(1)
		rep.markTransition(err.Error())
		return server.Response{}, err
	}
	rep.onSuccess(trial)
	if resp.Rejected {
		rep.rejections.Add(1)
	} else {
		rep.successes.Add(1)
		if resp.DeadlineMiss {
			rep.deadlineMisses.Add(1)
		}
		f.recordRTT(time.Since(start))
	}
	rep.put(f, c)
	return resp, nil
}

// spawn runs attempt in a goroutine tracked by the fleet's WaitGroup; the
// buffered channel lets a hedged loser finish (and settle its breaker and
// pool state) without anyone receiving.
func (f *Fleet) spawn(rep *replica, trial bool, seq, deadlineNs uint64, s bitvec.Vec) <-chan result {
	ch := make(chan result, 1)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		resp, err := f.attempt(rep, trial, seq, deadlineNs, s)
		ch <- result{resp, err}
	}()
	return ch
}

// hedged races a second replica against primary once the hedge delay
// expires. The first clean answer wins; a losing attempt settles itself in
// the background. When the first arriving outcome is a failure or a
// rejection, the race waits for the other leg before giving up — the
// slower replica may still hold the answer.
func (f *Fleet) hedged(primary *replica, seq, deadlineNs uint64, s bitvec.Vec) (server.Response, error) {
	ch1 := f.spawn(primary, false, seq, deadlineNs, s)
	timer := time.NewTimer(f.hedgeDelay())
	var first result
	select {
	case first = <-ch1:
		timer.Stop()
		return first.resp, first.err
	case <-timer.C:
	}
	sec, trial := f.pick(primary)
	if sec == nil {
		r := <-ch1
		return r.resp, r.err
	}
	sec.hedges.Add(1)
	ch2 := f.spawn(sec, trial, seq, deadlineNs, s)
	var other <-chan result
	select {
	case first = <-ch1:
		other = ch2
	case first = <-ch2:
		other = ch1
	}
	if first.err == nil && !first.resp.Rejected {
		return first.resp, nil
	}
	second := <-other
	if second.err == nil && !second.resp.Rejected {
		return second.resp, nil
	}
	// Both legs failed or were shed. Prefer a rejection — it carries an
	// actionable retry-after hint — over a transport error.
	if first.err == nil {
		return first.resp, nil
	}
	if second.err == nil {
		return second.resp, nil
	}
	return first.resp, first.err
}

// Decode sends one syndrome to the fleet and returns its answer, failing
// over across replicas on transport faults and backpressure rejections (up
// to MaxAttempts). A response is returned exactly once per call; hedged
// duplicates are absorbed internally. A rejection is returned (not an
// error) only when every attempted replica shed the request — the caller
// should honour the retry-after hint. Per-request server errors
// (Response.Err) are terminal, exactly as for server.Client.
func (f *Fleet) Decode(seq, deadlineNs uint64, s bitvec.Vec) (server.Response, error) {
	if f.isClosed() {
		return server.Response{}, errFleetClosed
	}
	var lastErr error
	var reject *server.Response
	var last *replica
	for attempt := 0; attempt < f.cfg.MaxAttempts; attempt++ {
		// Failover means the NEXT replica: never re-try the one that just
		// failed or shed the request unless it is the only one admitted.
		rep, trial := f.pick(last)
		if rep == nil {
			if rep, trial = f.pick(nil); rep == nil {
				break
			}
		}
		last = rep
		var resp server.Response
		var err error
		if f.cfg.Hedge && !trial {
			resp, err = f.hedged(rep, seq, deadlineNs, s)
		} else {
			resp, err = f.attempt(rep, trial, seq, deadlineNs, s)
		}
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Rejected {
			rr := resp
			reject = &rr
			continue
		}
		return resp, nil
	}
	if reject != nil {
		return *reject, nil
	}
	if lastErr == nil {
		return server.Response{}, ErrNoReplicas
	}
	return server.Response{}, fmt.Errorf("%w: %v", ErrExhausted, lastErr)
}

// probeLoop is the background health checker.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			for _, rep := range f.reps {
				f.probe(rep)
			}
		}
	}
}

// probe health-checks one replica: a parked connection is pinged; a
// replica with no connections at all gets one dialed (which also runs the
// fingerprint guard); an ejected replica past its OpenTimeout gets its
// half-open trial here even with no caller traffic, so recovery does not
// depend on a request happening to arrive.
func (f *Fleet) probe(rep *replica) {
	if rep.transitioning() {
		// A transition shed heals only by re-checking the replica's
		// advertised generation: dial fresh (the shed severed every pooled
		// connection) and let get's guard re-classify — clearing the shed
		// on a pass, refreshing it or escalating to quarantine otherwise.
		rep.probes.Add(1)
		c, err := rep.get(f)
		if err != nil {
			rep.probeFails.Add(1)
			return
		}
		rep.put(f, c)
		return
	}
	ok, trial := rep.admit()
	if !ok {
		return
	}
	c := rep.tryIdle()
	if c == nil {
		if !trial && rep.borrowed() > 0 {
			// Every connection is busy serving traffic; that traffic is the
			// health signal.
			return
		}
		rep.probes.Add(1)
		var err error
		c, err = rep.get(f)
		if err != nil {
			rep.probeFails.Add(1)
			if !configFault(err) && !errors.Is(err, errFleetClosed) {
				rep.onFail(trial)
			}
			return
		}
	} else {
		rep.probes.Add(1)
	}
	if _, err := c.Ping(); err != nil {
		rep.probeFails.Add(1)
		rep.discard(c)
		rep.onFail(trial)
		return
	}
	rep.onSuccess(trial)
	rep.put(f, c)
}

// Stats snapshots every replica's health and traffic counters, in Addrs
// order.
func (f *Fleet) Stats() []ReplicaStats {
	out := make([]ReplicaStats, len(f.reps))
	for i, rep := range f.reps {
		out[i] = rep.snapshot()
	}
	return out
}

// Close stops the prober, severs every connection and waits for in-flight
// attempt goroutines (hedged losers included) to drain. In-flight Decodes
// fail promptly because their connections are closed under them.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	close(f.stop)
	for _, rep := range f.reps {
		rep.closeConns()
	}
	f.wg.Wait()
	// A racer may have registered a fresh connection after the sweep; its
	// goroutine has exited (wg drained), so a final sweep closes stragglers.
	for _, rep := range f.reps {
		rep.closeConns()
	}
	return nil
}
