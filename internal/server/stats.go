package server

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"astrea/internal/montecarlo"
	"astrea/internal/realtime"
)

// stats is the daemon's hot-path instrumentation: plain atomic counters
// plus the shared realtime.Tracker for deadline accounting (so the
// service's miss rate is defined exactly as Figure 3's offline criterion).
type stats struct {
	start     time.Time
	queueCap  int
	deadline  float64
	offered   atomic.Int64 // decode frames parsed (accepted + rejected)
	accepted  atomic.Int64 // answered inline or enqueued
	inline    atomic.Int64 // accepted and decoded on the connection's reader
	rejected  atomic.Int64 // backpressure rejections
	completed atomic.Int64 // results written
	malformed atomic.Int64 // undecodable syndrome payloads (error frames)
	// checksumFail counts frames rejected by the CRC32C trailer
	// (FeatureChecksum streams): corruption that would otherwise have
	// decoded into a silently wrong correction.
	checksumFail atomic.Int64
	pings        atomic.Int64 // probe frames answered (FeatureProbe streams)
	panics       atomic.Int64 // contained decoder panics (internal-error frames)
	idleReaped   atomic.Int64 // connections closed for idleness
	overCap      atomic.Int64 // connections refused at the MaxConns cap
	batches      atomic.Int64 // worker wake-ups
	batched      atomic.Int64 // requests drained across all batches
	bytesIn      atomic.Int64 // compressed syndrome payload bytes received
	framesOut    atomic.Int64 // frames written to client connections
	flushes      atomic.Int64 // write syscalls that carried them
	// Streaming-session accounting (FeatureStream connections).
	streamsOpened    atomic.Int64 // sessions accepted
	streamsRefused   atomic.Int64 // stream-opens refused (pipeline setup failed)
	streamsCompleted atomic.Int64 // sessions ending with a clean Close exchange
	streamsAborted   atomic.Int64 // sessions torn down mid-stream
	streamRows       atomic.Int64 // syndrome rounds ingested across all sessions
	streamWindows    atomic.Int64 // windows committed across all sessions
	streamForced     atomic.Int64 // forced (approximate) cuts across all sessions
	streamMisses     atomic.Int64 // window commits that overran their row budget
	// Resume accounting (FeatureStreamResume sessions).
	streamsParked        atomic.Int64 // sessions parked after a connection loss
	streamsResumed       atomic.Int64 // successful StreamResume reattaches
	streamsResumeMisses  atomic.Int64 // resumes refused (unknown token, stale watermark)
	streamsResumeExpired atomic.Int64 // parked sessions reaped at the TTL
	streamsResumeEvicted atomic.Int64 // parked sessions evicted at the cache bounds
	// Rotation accounting (see rotate.go).
	rotations          atomic.Int64 // completed hot-swaps across all distances
	generationsRetired atomic.Int64 // superseded generations fully drained
	tracker            *realtime.Tracker
}

func newStats(cfg Config, deadlineNs float64) *stats {
	return &stats{
		start:    time.Now(),
		queueCap: cfg.QueueDepth,
		deadline: deadlineNs,
		tracker:  realtime.NewTracker(deadlineNs),
	}
}

// Snapshot is a point-in-time export of the daemon's counters, shaped for
// the /stats endpoint and expvar.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	// Admission accounting: Offered == Accepted + Rejected always holds.
	// Accepted counts both routes — Inline, the HW ≤ 10 requests an Astrea
	// or Astrea-G pool decodes on the connection's reader, plus the ones
	// enqueued for a worker — and after a drain Accepted == Completed +
	// Panics (every accepted request is answered with a result or an
	// internal-error frame). Batches and MeanBatch describe the queued
	// route only.
	Offered   int64 `json:"offered"`
	Accepted  int64 `json:"accepted"`
	Inline    int64 `json:"inline"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Malformed int64 `json:"malformed"`

	// ChecksumFailures counts CRC32C-rejected frames on checksummed
	// streams; Pings counts answered health probes.
	ChecksumFailures int64 `json:"checksum_failures"`
	Pings            int64 `json:"pings"`

	// Fingerprints maps each served distance to its decoding-configuration
	// digest (DEM + quantised GWT), the value replicas must agree on before
	// a fleet client will mix their answers. Keys are decimal distances.
	Fingerprints map[string]string `json:"fingerprints"`

	// Engines maps each served distance to the exact-matching engine behind
	// its current generation's decoders ("dense", "sparse", or the decoder
	// name for decoders that are their own engine). Two generations can
	// share a decoder name while differing here, so load reports and fleet
	// audits attribute answers to the engine that produced them.
	Engines map[string]string `json:"engines"`

	// Generations maps each served distance to its rotation state: current
	// generation ordinal and fingerprint, the still-draining fingerprint
	// set, and a calibration-drift score of observed detector-flip rates
	// against the tables' expectations. Keys are decimal distances.
	Generations map[string]GenerationStatus `json:"generations"`
	// Rotations counts completed hot-swaps; GenerationsRetired counts
	// superseded generations that have fully drained (after a quiescent
	// rotation the two differ by the still-draining count).
	Rotations          int64 `json:"rotations"`
	GenerationsRetired int64 `json:"generations_retired"`

	// Shared environment cache occupancy (process-wide, montecarlo): a
	// rotating daemon resolves stream-window environments per generation,
	// and the cache's LRU bound turns that churn into evictions instead of
	// unbounded growth.
	EnvCacheEntries   int   `json:"env_cache_entries"`
	EnvCacheBytes     int64 `json:"env_cache_bytes"`
	EnvCacheEvictions int64 `json:"env_cache_evictions"`

	// Fault containment accounting. Degraded is always 0: no request is
	// answered by any decoder but its pool's (FlagDegraded marks only
	// stream windows the exact fallback answered). The field stays for
	// readers of the snapshot's JSON.
	Panics       int64 `json:"panics"`         // contained decoder panics
	Degraded     int64 `json:"degraded"`       // always 0
	IdleReaped   int64 `json:"idle_reaped"`    // connections closed for idleness
	ConnsOverCap int64 `json:"conns_over_cap"` // refused at the connection cap
	ActiveConns  int   `json:"active_conns"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	Batches   int64   `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`

	BytesIn int64 `json:"bytes_in"`

	// FramesOut counts every frame written to a client connection after the
	// handshake began; Flushes counts the writes that carried them. Their
	// ratio is the write coalescing a pipelining client is getting.
	FramesOut int64 `json:"frames_out"`
	Flushes   int64 `json:"flushes"`

	// Streaming-session accounting (FeatureStream windowed sessions).
	StreamsOpened        int64 `json:"streams_opened"`
	StreamsRefused       int64 `json:"streams_refused"`
	StreamsCompleted     int64 `json:"streams_completed"`
	StreamsAborted       int64 `json:"streams_aborted"`
	StreamRows           int64 `json:"stream_rows"`
	StreamWindows        int64 `json:"stream_windows"`
	StreamForcedCuts     int64 `json:"stream_forced_cuts"`
	StreamDeadlineMisses int64 `json:"stream_deadline_misses"`

	// Resume accounting (FeatureStreamResume sessions): parked/resumed
	// flows plus the resume cache's current occupancy. A drained daemon
	// always ends with ResumeCacheSessions == 0 — every parked session is
	// eventually resumed, expired or evicted.
	StreamsParked       int64 `json:"streams_parked"`
	StreamsResumed      int64 `json:"streams_resumed"`
	StreamResumeMisses  int64 `json:"stream_resume_misses"`
	StreamResumeExpired int64 `json:"stream_resume_expired"`
	StreamResumeEvicted int64 `json:"stream_resume_evicted"`
	ResumeCacheSessions int   `json:"resume_cache_sessions"`
	ResumeCacheBytes    int64 `json:"resume_cache_bytes"`

	// Deadline accounting over completed decodes (realtime semantics:
	// on time ⇔ sojourn ≤ per-request budget).
	DefaultDeadlineNs float64 `json:"default_deadline_ns"`
	DeadlineMisses    int64   `json:"deadline_misses"`
	DeadlineMissRate  float64 `json:"deadline_miss_rate"`

	ThroughputPerSec float64 `json:"throughput_per_sec"`

	LatencyNs LatencySummary `json:"latency_ns"`
}

// LatencySummary summarises the server-side sojourn histogram.
type LatencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Snapshot exports the current counters.
func (s *Server) Snapshot() Snapshot {
	st := s.stats
	up := time.Since(st.start).Seconds()
	completed := st.completed.Load()
	batches := st.batches.Load()
	snap := Snapshot{
		UptimeSec:            up,
		Offered:              st.offered.Load(),
		Accepted:             st.accepted.Load(),
		Inline:               st.inline.Load(),
		Rejected:             st.rejected.Load(),
		Completed:            completed,
		Malformed:            st.malformed.Load(),
		ChecksumFailures:     st.checksumFail.Load(),
		Pings:                st.pings.Load(),
		Fingerprints:         s.fingerprintStrings(),
		Engines:              s.engineStrings(),
		Generations:          s.generationStatuses(),
		Rotations:            st.rotations.Load(),
		GenerationsRetired:   st.generationsRetired.Load(),
		Panics:               st.panics.Load(),
		IdleReaped:           st.idleReaped.Load(),
		ConnsOverCap:         st.overCap.Load(),
		ActiveConns:          s.activeConns(),
		QueueDepth:           len(s.queue),
		QueueCap:             st.queueCap,
		Batches:              batches,
		BytesIn:              st.bytesIn.Load(),
		FramesOut:            st.framesOut.Load(),
		Flushes:              st.flushes.Load(),
		StreamsOpened:        st.streamsOpened.Load(),
		StreamsRefused:       st.streamsRefused.Load(),
		StreamsCompleted:     st.streamsCompleted.Load(),
		StreamsAborted:       st.streamsAborted.Load(),
		StreamRows:           st.streamRows.Load(),
		StreamWindows:        st.streamWindows.Load(),
		StreamForcedCuts:     st.streamForced.Load(),
		StreamDeadlineMisses: st.streamMisses.Load(),
		StreamsParked:        st.streamsParked.Load(),
		StreamsResumed:       st.streamsResumed.Load(),
		StreamResumeMisses:   st.streamsResumeMisses.Load(),
		StreamResumeExpired:  st.streamsResumeExpired.Load(),
		StreamResumeEvicted:  st.streamsResumeEvicted.Load(),
		DefaultDeadlineNs:    st.deadline,
		DeadlineMisses:       st.tracker.Total() - st.tracker.OnTime(),
		DeadlineMissRate:     st.tracker.MissRate(),
	}
	snap.ResumeCacheSessions, snap.ResumeCacheBytes = s.resumeCacheGauges()
	snap.EnvCacheEntries, snap.EnvCacheBytes, snap.EnvCacheEvictions = montecarlo.SharedEnvCacheStats()
	if batches > 0 {
		snap.MeanBatch = float64(st.batched.Load()) / float64(batches)
	}
	if up > 0 {
		snap.ThroughputPerSec = float64(completed) / up
	}
	h := st.tracker.Hist()
	snap.LatencyNs = LatencySummary{
		Mean: h.MeanNs(),
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
		Max:  h.MaxNs(),
	}
	return snap
}

// StatsHandler serves the snapshot as JSON — mount it at /stats. The same
// Snapshot also backs the daemon's expvar integration (cmd/astread
// publishes it under the "astread" variable).
func (s *Server) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//lint:allow errwrap an encode error here is a client that hung up mid-response; http has no channel left to report it on
		enc.Encode(s.Snapshot())
	})
}
