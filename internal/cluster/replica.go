package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/server"
)

// breakerState is a replica's admission state.
type breakerState int

const (
	// stateClosed admits traffic — the healthy state ("closed" in the
	// circuit-breaker sense: a closed circuit conducts).
	stateClosed breakerState = iota
	// stateOpen sheds traffic after FailThreshold consecutive failures.
	// Once OpenTimeout elapses a single half-open trial request is
	// admitted; its outcome closes or re-arms the breaker.
	stateOpen
	// stateQuarantined permanently sheds traffic: the replica advertised a
	// decoding-configuration fingerprint disagreeing with the fleet's.
	// Mixing answers from such a replica would silently corrupt
	// corrections, so there is no recovery path short of a new Fleet.
	stateQuarantined
	// stateTransition transiently sheds traffic: the replica's advertised
	// generation fell outside the fleet's accepted fingerprint window
	// during an artifact rotation (it is ahead of or behind the staged
	// rollout). Unlike quarantine this heals — the prober re-dials and
	// re-runs the guard, and the replica rejoins the moment its digest
	// lands back inside the window (or escalates to quarantine if the
	// divergence turns out to be permanent).
	stateTransition
)

func (s breakerState) String() string {
	switch s {
	case stateClosed:
		return "closed"
	case stateOpen:
		return "open"
	case stateQuarantined:
		return "quarantined"
	case stateTransition:
		return "transition"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// replica is one astread endpoint's client-side state: a circuit breaker
// and a small pool of idle handshaken connections.
type replica struct {
	addr string
	cfg  *Config

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker (re-)opened
	trialing bool      // a half-open trial is in flight
	reason   string    // quarantine or transition-shed reason
	idle     []*server.Client
	// open tracks every connection created and not yet closed (idle and
	// borrowed alike) so teardown and quarantine can sever all of them.
	open map[*server.Client]struct{}

	requests   atomic.Int64 // decode attempts routed here (incl. hedges)
	successes  atomic.Int64 // decode responses carrying a result
	failures   atomic.Int64 // dial or transport failures
	rejections atomic.Int64 // backpressure rejections (healthy but busy)
	hedges     atomic.Int64 // times this replica was raced as a hedge
	probes     atomic.Int64 // health probes sent
	probeFails atomic.Int64 // health probes failed
	streams    atomic.Int64 // streaming sessions dialed here (opens + failovers)
	// Result-quality counter feeding the staged-rollout regression gate: a
	// generation that decodes slower shows up here, as missed deadlines.
	deadlineMisses atomic.Int64 // results whose sojourn overran the deadline
}

func newReplica(addr string, cfg *Config) *replica {
	return &replica{addr: addr, cfg: cfg, open: make(map[*server.Client]struct{})}
}

// admit reports whether the breaker currently admits a request. trial is
// true when the admission is the breaker's single half-open probe: the
// caller MUST settle it with onSuccess(true) or onFail(true), or the
// breaker wedges with a phantom trial in flight.
func (r *replica) admit() (ok, trial bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case stateClosed:
		return true, false
	case stateOpen:
		if !r.trialing && time.Since(r.openedAt) >= r.cfg.OpenTimeout {
			r.trialing = true
			return true, true
		}
	case stateQuarantined:
		// Permanently shed: a fingerprint mismatch never heals, so no
		// half-open probes either.
	case stateTransition:
		// Shed until the prober's fresh handshake re-classifies the
		// replica; caller traffic must not race the fingerprint re-check.
	}
	return false, false
}

// onSuccess records a healthy interaction: the breaker closes and the
// consecutive-failure count resets.
func (r *replica) onSuccess(trial bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == stateQuarantined || r.state == stateTransition {
		// Quarantine never heals; a transition shed heals only through the
		// prober's explicit fingerprint re-check, not through a straggling
		// in-flight success.
		return
	}
	r.state = stateClosed
	r.fails = 0
	if trial {
		r.trialing = false
	}
}

// onFail records a dial or transport failure. While closed it counts
// toward FailThreshold (tripping drops the idle pool — those connections
// share the failing endpoint); while open it re-arms the OpenTimeout.
func (r *replica) onFail(trial bool) {
	r.mu.Lock()
	var drop []*server.Client
	switch r.state {
	case stateOpen:
		r.openedAt = time.Now()
		if trial {
			r.trialing = false
		}
	case stateClosed:
		r.fails++
		if r.fails >= r.cfg.FailThreshold {
			r.state = stateOpen
			r.openedAt = time.Now()
			drop = r.idle
			r.idle = nil
			for _, c := range drop {
				delete(r.open, c)
			}
		}
	case stateQuarantined:
		// Already permanently shed; one more failure changes nothing.
	case stateTransition:
		// Already shed; the prober owns recovery.
	}
	r.mu.Unlock()
	for _, c := range drop {
		//lint:allow errwrap dropping pooled conns to a failing endpoint; its consecutive-failure state is the signal that matters
		c.Close()
	}
}

// quarantine permanently ejects the replica and severs every connection to
// it, including borrowed ones mid-flight: answers from a mismatched
// configuration must not reach callers.
func (r *replica) quarantine(reason string) {
	r.mu.Lock()
	if r.state == stateQuarantined {
		r.mu.Unlock()
		return
	}
	r.state = stateQuarantined
	r.reason = reason
	r.trialing = false
	drop := make([]*server.Client, 0, len(r.open))
	for c := range r.open {
		drop = append(drop, c)
	}
	r.open = make(map[*server.Client]struct{})
	r.idle = nil
	r.mu.Unlock()
	for _, c := range drop {
		//lint:allow errwrap severing conns to a quarantined replica; the fingerprint mismatch is already recorded
		c.Close()
	}
}

// markTransition sheds the replica for the rest of the rotation window:
// its advertised generation fell outside the fleet's accepted fingerprint
// set mid-rotation. Every connection is severed — pooled connections were
// handshaken against a digest the fleet no longer (or does not yet)
// accept — but unlike quarantine the shed is transient: the prober
// re-checks and heals it. An already-quarantined replica is never
// downgraded to the softer state.
func (r *replica) markTransition(reason string) {
	r.mu.Lock()
	if r.state == stateQuarantined || r.state == stateTransition {
		r.mu.Unlock()
		return
	}
	r.state = stateTransition
	r.reason = reason
	r.trialing = false
	drop := make([]*server.Client, 0, len(r.open))
	for c := range r.open {
		drop = append(drop, c)
	}
	r.open = make(map[*server.Client]struct{})
	r.idle = nil
	r.mu.Unlock()
	for _, c := range drop {
		//lint:allow errwrap severing conns pinned to an unaccepted generation; the transition mismatch is already recorded
		c.Close()
	}
}

// clearTransition returns a transition-shed replica to service (after a
// fresh handshake passed the guard, or after the fleet's accepted window
// changed and the replica deserves a re-check). No-op in any other state.
func (r *replica) clearTransition() {
	r.mu.Lock()
	if r.state == stateTransition {
		r.state = stateClosed
		r.fails = 0
		r.reason = ""
	}
	r.mu.Unlock()
}

// transitioning reports whether the replica is transition-shed.
func (r *replica) transitioning() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state == stateTransition
}

// tryIdle pops a parked connection, or nil.
func (r *replica) tryIdle() *server.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.idle); n > 0 {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		return c
	}
	return nil
}

// borrowed counts connections currently checked out.
func (r *replica) borrowed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open) - len(r.idle)
}

// get returns a ready connection: a parked idle one, or a fresh dial whose
// advertised fingerprint is verified against the fleet's accepted window
// before use. A mismatch sheds the replica — permanently
// (ErrFingerprintMismatch) or for the rest of a rotation window
// (ErrTransitionMismatch) — and a passing handshake heals a
// transition-shed replica.
func (r *replica) get(f *Fleet) (*server.Client, error) {
	if c := r.tryIdle(); c != nil {
		return c, nil
	}
	if f.isClosed() {
		return nil, errFleetClosed
	}
	c, err := server.DialOptions(r.addr, f.cfg.Distance, f.cfg.CodecID, f.clientOpts)
	if err != nil {
		return nil, err
	}
	if err := f.vetConn(r, c); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.open[c] = struct{}{}
	r.mu.Unlock()
	// Close may have swept between the dial and the registration above; a
	// second check guarantees the connection is either in the sweep's view
	// or closed here, so Fleet.Close never leaves a live socket behind.
	if f.isClosed() {
		r.discard(c)
		return nil, errFleetClosed
	}
	return c, nil
}

// put parks a healthy connection for reuse, closing it instead when the
// fleet is down, the breaker is not closed, or the idle pool is full.
func (r *replica) put(f *Fleet, c *server.Client) {
	closed := f.isClosed()
	r.mu.Lock()
	if _, tracked := r.open[c]; !tracked {
		// Quarantine or teardown already severed it.
		r.mu.Unlock()
		//lint:allow errwrap conn already untracked; closing again is belt-and-braces
		c.Close()
		return
	}
	if closed || r.state != stateClosed || len(r.idle) >= r.cfg.ConnsPerReplica {
		delete(r.open, c)
		r.mu.Unlock()
		//lint:allow errwrap conn not worth pooling (breaker tripped or pool full); close errors are unactionable
		c.Close()
		return
	}
	r.idle = append(r.idle, c)
	r.mu.Unlock()
}

// discard closes a connection whose stream state is unrecoverable.
func (r *replica) discard(c *server.Client) {
	r.mu.Lock()
	delete(r.open, c)
	r.mu.Unlock()
	//lint:allow errwrap discarding a conn that just failed a call; the call error is the actionable one
	c.Close()
}

// closeConns severs every connection (idle and borrowed).
func (r *replica) closeConns() {
	r.mu.Lock()
	drop := make([]*server.Client, 0, len(r.open))
	for c := range r.open {
		drop = append(drop, c)
	}
	r.open = make(map[*server.Client]struct{})
	r.idle = nil
	r.mu.Unlock()
	for _, c := range drop {
		//lint:allow errwrap fleet shutdown teardown; per-conn close errors have no one to act on them
		c.Close()
	}
}

// ReplicaStats is one endpoint's point-in-time health and traffic summary.
type ReplicaStats struct {
	Addr  string `json:"addr"`
	State string `json:"state"` // closed | open | quarantined | transition
	// QuarantineReason names a permanent fingerprint divergence;
	// TransitionReason names a transient rotation-window mismatch the
	// prober is re-checking. At most one is set, matching State.
	QuarantineReason string `json:"quarantine_reason,omitempty"`
	TransitionReason string `json:"transition_reason,omitempty"`

	Requests      int64 `json:"requests"`
	Successes     int64 `json:"successes"`
	Failures      int64 `json:"failures"`
	Rejections    int64 `json:"rejections"`
	Hedges        int64 `json:"hedges"`
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
	Streams       int64 `json:"streams"`
	// DeadlineMisses grades the answers this replica did give: deadline
	// overruns, the rollout gate's regression signal.
	DeadlineMisses int64 `json:"deadline_misses"`
	IdleConns      int   `json:"idle_conns"`
}

func (r *replica) snapshot() ReplicaStats {
	r.mu.Lock()
	st := ReplicaStats{
		Addr:      r.addr,
		State:     r.state.String(),
		IdleConns: len(r.idle),
	}
	switch r.state {
	case stateQuarantined:
		st.QuarantineReason = r.reason
	case stateTransition:
		st.TransitionReason = r.reason
	case stateClosed, stateOpen:
		// Healthy or breaker-ejected: no shed reason to report.
	}
	r.mu.Unlock()
	st.Requests = r.requests.Load()
	st.Successes = r.successes.Load()
	st.Failures = r.failures.Load()
	st.Rejections = r.rejections.Load()
	st.Hedges = r.hedges.Load()
	st.Probes = r.probes.Load()
	st.ProbeFailures = r.probeFails.Load()
	st.Streams = r.streams.Load()
	st.DeadlineMisses = r.deadlineMisses.Load()
	return st
}
