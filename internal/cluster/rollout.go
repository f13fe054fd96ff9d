package cluster

import (
	"errors"
	"fmt"
	"time"

	"astrea/internal/decodegraph"
	"astrea/internal/server"
)

// Staged fleet rollout: upgrade a fleet's replicas to a new artifact
// generation one at a time, under live traffic, with a regression gate in
// front of every step. The fleet's accepted fingerprint window widens to
// {next, previous} for the duration (BeginTransition), each replica is
// rotated and then watched — its deadline-miss and retry rates after the
// swap are compared against its own rates just before it — and a replica
// that got worse is reverted and the whole rollout rolled back
// (AbortTransition). Only when every replica has rotated and passed does
// the window narrow to the new generation alone (CompleteTransition).
//
// StageRollout drives the control plane only; the caller keeps normal
// Decode/OpenStream traffic flowing concurrently — that traffic is both
// the availability proof and the gate's sample source.

// ErrRolloutRegression marks a staged rollout that was rolled back
// because a freshly rotated replica's service quality regressed past the
// configured tolerance.
var ErrRolloutRegression = errors.New("cluster: staged rollout rolled back on a quality regression")

// RolloutConfig parameterises StageRollout.
type RolloutConfig struct {
	// Next is the fingerprint of the generation being rolled out — read it
	// from the new artifact (FingerprintFromArtifact), not from a replica.
	Next decodegraph.Fingerprint
	// Apply rotates one replica to the new generation (for astread: send
	// SIGHUP after installing the artifact in its watch directory, or call
	// Server.Rotate in-process). Required.
	Apply func(addr string) error
	// Revert rolls one replica back to the previous generation after a
	// failed gate. Optional; when nil a failed step still aborts the
	// transition but leaves the replica to the operator (it will sit in
	// quarantine until reverted by hand).
	Revert func(addr string) error

	// Settle is how long a freshly rotated replica drains before its
	// post-rotation window opens, so the gate scores the new tables rather
	// than the swap itself. Default 100ms.
	Settle time.Duration
	// ConfirmTimeout bounds each wait inside one step: for the replica to
	// advertise the new fingerprint after Apply, and for either sampling
	// window to accumulate MinSamples of traffic. Default 10s.
	ConfirmTimeout time.Duration
	// Poll is the re-check cadence for confirmation and sampling waits.
	// Default 20ms.
	Poll time.Duration
	// MinSamples is how many settled answers each of the two windows
	// (pre- and post-rotation) must observe before the gate judges.
	// Default 50.
	MinSamples int64
	// Tolerance is the absolute worsening each gated rate may show before
	// the gate fires (post > pre + Tolerance). Default 0.05.
	Tolerance float64
}

func (c *RolloutConfig) applyDefaults() {
	if c.Settle <= 0 {
		c.Settle = 100 * time.Millisecond
	}
	if c.ConfirmTimeout <= 0 {
		c.ConfirmTimeout = 10 * time.Second
	}
	if c.Poll <= 0 {
		c.Poll = 20 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 50
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.05
	}
}

// RateSample is a replica's service-quality counters at one instant; the
// gate works on deltas between two samples.
type RateSample struct {
	Requests       int64 `json:"requests"`
	Successes      int64 `json:"successes"`
	Failures       int64 `json:"failures"`
	Rejections     int64 `json:"rejections"`
	DeadlineMisses int64 `json:"deadline_misses"`
}

func (r *replica) sample() RateSample {
	return RateSample{
		Requests:       r.requests.Load(),
		Successes:      r.successes.Load(),
		Failures:       r.failures.Load(),
		Rejections:     r.rejections.Load(),
		DeadlineMisses: r.deadlineMisses.Load(),
	}
}

// minus returns the counter deltas r−base (the traffic between two
// sampling instants).
func (r RateSample) minus(base RateSample) RateSample {
	return RateSample{
		Requests:       r.Requests - base.Requests,
		Successes:      r.Successes - base.Successes,
		Failures:       r.Failures - base.Failures,
		Rejections:     r.Rejections - base.Rejections,
		DeadlineMisses: r.DeadlineMisses - base.DeadlineMisses,
	}
}

// settled counts the answers that actually grade the replica: completed
// decodes plus shed/failed attempts.
func (r RateSample) settled() int64 { return r.Successes + r.Failures + r.Rejections }

// rates reduces a delta to the two gated rates: deadline misses per
// success, and failures-plus-rejections (the caller's retries) per routed
// request.
func (r RateSample) rates() (missed, retried float64) {
	if r.Successes > 0 {
		missed = float64(r.DeadlineMisses) / float64(r.Successes)
	}
	if r.Requests > 0 {
		retried = float64(r.Failures+r.Rejections) / float64(r.Requests)
	}
	return missed, retried
}

// RolloutStep is one replica's record in the rollout report.
type RolloutStep struct {
	Addr string `json:"addr"`
	// Baseline and Post are the pre- and post-rotation traffic deltas the
	// gate compared (Post is zero-valued when the step failed before
	// sampling it).
	Baseline RateSample `json:"baseline"`
	Post     RateSample `json:"post"`
	// RolledBack marks the step that fired the gate; Reason says why.
	RolledBack bool   `json:"rolled_back,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// RolloutReport summarises a StageRollout run.
type RolloutReport struct {
	// Completed is true when every replica rotated and passed the gate and
	// the transition window was narrowed onto the new generation.
	Completed bool          `json:"completed"`
	Steps     []RolloutStep `json:"steps"`
}

// StageRollout upgrades the fleet replica-by-replica to the Next
// generation under live traffic, gating each step on the replica's own
// pre-rotation quality and rolling the whole fleet back on the first
// regression. On success the fleet's accepted fingerprint converges on
// Next; on rollback (ErrRolloutRegression) or any step failure it
// converges back on the previous digest. The caller must keep traffic
// flowing concurrently — with no traffic the sampling windows time out
// and the rollout aborts.
func (f *Fleet) StageRollout(cfg RolloutConfig) (RolloutReport, error) {
	var rep RolloutReport
	if cfg.Next == 0 {
		return rep, errors.New("cluster: rollout has no target fingerprint")
	}
	if cfg.Apply == nil {
		return rep, errors.New("cluster: rollout has no Apply hook")
	}
	cfg.applyDefaults()
	prev, ok := f.Fingerprint()
	if !ok {
		return rep, errors.New("cluster: no fingerprint adopted yet, decode some traffic first")
	}
	if err := f.BeginTransition(cfg.Next); err != nil {
		return rep, err
	}
	for _, r := range f.reps {
		step := RolloutStep{Addr: r.addr}

		// Pre-rotation window: the replica's own recent quality under the
		// caller's live traffic is the baseline the new generation must
		// match. Sampling before Apply means both windows see the same
		// workload mix (minus drift in the traffic itself).
		base, err := f.collectWindow(r, cfg)
		if err != nil {
			rep.Steps = append(rep.Steps, step)
			f.AbortTransition()
			return rep, fmt.Errorf("cluster: rollout baseline for %s: %w", r.addr, err)
		}
		step.Baseline = base

		if err := cfg.Apply(r.addr); err != nil {
			rep.Steps = append(rep.Steps, step)
			f.AbortTransition()
			return rep, fmt.Errorf("cluster: rotating %s: %w", r.addr, err)
		}
		if err := f.confirmFingerprint(r.addr, cfg.Next, cfg); err != nil {
			step.RolledBack = true
			step.Reason = err.Error()
			rep.Steps = append(rep.Steps, step)
			f.rollback(r, prev, cfg)
			return rep, fmt.Errorf("%w: %s never advertised the new generation: %v", ErrRolloutRegression, r.addr, err)
		}
		time.Sleep(cfg.Settle)

		// Post-rotation window, judged against the baseline.
		post, err := f.collectWindow(r, cfg)
		if err != nil {
			step.RolledBack = true
			step.Reason = err.Error()
			rep.Steps = append(rep.Steps, step)
			f.rollback(r, prev, cfg)
			return rep, fmt.Errorf("%w: sampling %s after rotation: %v", ErrRolloutRegression, r.addr, err)
		}
		step.Post = post
		if reason := gate(base, post, cfg.Tolerance); reason != "" {
			step.RolledBack = true
			step.Reason = reason
			rep.Steps = append(rep.Steps, step)
			f.rollback(r, prev, cfg)
			return rep, fmt.Errorf("%w: %s: %s", ErrRolloutRegression, r.addr, reason)
		}
		rep.Steps = append(rep.Steps, step)
	}
	f.CompleteTransition()
	rep.Completed = true
	return rep, nil
}

// gate compares a replica's post-rotation rates against its baseline and
// returns a non-empty reason when any gated rate worsened past the
// tolerance.
func gate(base, post RateSample, tol float64) string {
	bm, br := base.rates()
	pm, pr := post.rates()
	switch {
	case pm > bm+tol:
		return fmt.Sprintf("deadline-miss rate %.3f worsened past baseline %.3f", pm, bm)
	case pr > br+tol:
		return fmt.Sprintf("retry rate %.3f worsened past baseline %.3f", pr, br)
	}
	return ""
}

// collectWindow waits until the replica has settled MinSamples of new
// traffic and returns that window's counter delta, or times out.
func (f *Fleet) collectWindow(r *replica, cfg RolloutConfig) (RateSample, error) {
	start := r.sample()
	deadline := time.Now().Add(cfg.ConfirmTimeout)
	for {
		delta := r.sample().minus(start)
		if delta.settled() >= cfg.MinSamples {
			return delta, nil
		}
		if time.Now().After(deadline) {
			return delta, fmt.Errorf("cluster: %s settled %d of %d gate samples before the window timed out (is traffic flowing?)",
				r.addr, delta.settled(), cfg.MinSamples)
		}
		time.Sleep(cfg.Poll)
	}
}

// confirmFingerprint polls the replica with fresh handshakes
// until it advertises want (closing each probe connection), so the
// rollout never judges a swap that has not actually landed.
func (f *Fleet) confirmFingerprint(addr string, want decodegraph.Fingerprint, cfg RolloutConfig) error {
	deadline := time.Now().Add(cfg.ConfirmTimeout)
	var last string
	for {
		c, err := server.DialOptions(addr, f.cfg.Distance, f.cfg.CodecID, f.clientOpts)
		if err != nil {
			last = err.Error()
		} else {
			fp := decodegraph.Fingerprint(c.Fingerprint())
			//lint:allow errwrap closing a one-shot confirmation probe; its handshake already answered
			c.Close()
			if fp == want {
				return nil
			}
			last = fmt.Sprintf("advertises %s", fp)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %s did not advertise %s in time (%s)", addr, want, last)
		}
		time.Sleep(cfg.Poll)
	}
}

// rollback undoes one failed step: revert the replica (when a Revert hook
// exists), wait for it to advertise the previous generation again, then
// narrow the window back via AbortTransition. Ordering matters — the
// window must stay wide until the replica is back on the old digest, or
// its next handshake would trip the permanent quarantine.
func (f *Fleet) rollback(r *replica, prev decodegraph.Fingerprint, cfg RolloutConfig) {
	if cfg.Revert != nil {
		if err := cfg.Revert(r.addr); err == nil {
			// Best-effort confirmation; if the revert never lands the
			// replica ends up quarantined after the abort, which is the
			// correct loud failure for a half-reverted fleet.
			//lint:allow errwrap confirmation timeout after a revert; the abort below makes the divergence loud
			f.confirmFingerprint(r.addr, prev, cfg)
		}
	}
	f.AbortTransition()
}
