package cluster

import (
	"fmt"

	"astrea/internal/server"
)

// OpenStream opens a resumable windowed streaming session on the fleet.
// Streams are sticky but movable: the session lives on one replica, but on
// any connection or replica failure the stream's reconnect loop dials
// through the fleet again — same replica first by token (warm resume:
// retained commits re-delivered, only unreceived rounds replayed), any
// other healthy fingerprint-consistent replica otherwise (cold re-open
// from the commit watermark with full tail replay, bit-identical by the
// resume contract). Replica selection honours the breakers and the
// quarantine: an ejected or fingerprint-mismatched replica is never handed
// a stream, and dial failures settle the breaker exactly like decode
// failures.
//
// Stream connections are dedicated — never drawn from or returned to the
// per-replica idle pool (a streaming connection's read half belongs to
// commit frames) — and are owned by the returned ResumingStream: close it
// to release them; Fleet.Close does not reach into live streams.
func (f *Fleet) OpenStream(o server.ResumingStreamOptions) (*server.ResumingStream, error) {
	if f.isClosed() {
		return nil, errFleetClosed
	}
	return server.NewResumingStream(f.dialStream, o)
}

// dialStream dials a dedicated streaming connection to the next admitted
// replica, offering the stream and resume feature bits on top of the
// fleet's client options and enforcing the fingerprint guard. A replica
// that is healthy but does not negotiate resume (its resume cache is
// disabled) is skipped without tripping its breaker — refusing a
// capability is not a fault.
func (f *Fleet) dialStream() (*server.Client, error) {
	if f.isClosed() {
		return nil, errFleetClosed
	}
	opts := f.clientOpts
	opts.Features |= server.FeatureStream | server.FeatureStreamResume
	var lastErr error
	n := len(f.reps)
	start := int(f.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		rep := f.reps[(start+i)%n]
		ok, trial := rep.admit()
		if !ok {
			continue
		}
		c, err := server.DialOptions(rep.addr, f.cfg.Distance, f.cfg.CodecID, opts)
		if err != nil {
			rep.failures.Add(1)
			rep.onFail(trial)
			lastErr = err
			continue
		}
		if err := f.vetConn(rep, c); err != nil {
			lastErr = err
			continue
		}
		if c.Features()&server.FeatureStream == 0 || c.Features()&server.FeatureStreamResume == 0 {
			rep.onSuccess(trial)
			//lint:allow errwrap healthy replica, missing capability; the capability error below is the actionable one
			c.Close()
			lastErr = fmt.Errorf("cluster: replica %s did not negotiate stream resume", rep.addr)
			continue
		}
		rep.onSuccess(trial)
		rep.streams.Add(1)
		return c, nil
	}
	if lastErr == nil {
		return nil, ErrNoReplicas
	}
	return nil, lastErr
}
