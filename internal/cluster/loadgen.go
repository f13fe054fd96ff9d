package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/decodegraph"
	"astrea/internal/montecarlo"
	"astrea/internal/server"
)

// LoadConfig parameterises one load run against a replica fleet: the
// request-load fields a single-daemon run has too, plus what only a fleet
// adds.
type LoadConfig struct {
	// LoadConfig carries the shared fields — operating point, codec, shots,
	// rate, deadline, seed, verification (its Addr is unused: Addrs lists
	// the replicas).
	server.LoadConfig

	// Addrs lists the replica endpoints.
	Addrs []string
	// Concurrency is the number of synchronous decode workers driving the
	// fleet (each Fleet.Decode borrows its own connection). Default 4.
	// RatePerSec is the arrival rate across all of them.
	Concurrency int

	// Failover allows re-sending an unanswered request to the next healthy
	// replica; false pins each request to a single attempt.
	Failover bool
	// Hedge races a second replica after HedgeAfter (see Config.Hedge).
	Hedge      bool
	HedgeAfter time.Duration
	// CallTimeout bounds each attempt (the failover trigger).
	CallTimeout time.Duration
	// ExpectedFingerprint pins the configuration digest (0 adopts the
	// first replica's).
	ExpectedFingerprint decodegraph.Fingerprint
	// HealthInterval overrides the fleet's probe period (0 = default).
	HealthInterval time.Duration

	// Rotation chaos mode: once RotateAfterFrac of the shots have been
	// offered, stage a fleet-wide rollout to the bundle at RotateArtifact by
	// dropping it into each replica's artifact watch directory (RotateDirs,
	// parallel to Addrs — the daemons pick it up via -artifact-watch or
	// SIGHUP) while the load keeps flowing. Verification switches tables per
	// answer based on the generation digest it carries, so the zero-mismatch
	// gate spans the swap. A regression rolls the fleet back by dropping a
	// re-stamped copy of the previous tables at a higher generation.
	RotateArtifact string
	RotateDirs     []string
	// RotateAfterFrac is the fraction of shots offered before the rollout
	// starts (default 0.5).
	RotateAfterFrac float64
	// RotateConfirmTimeout bounds each rollout wait (fingerprint pickup and
	// gate sampling windows); it must comfortably exceed the daemons'
	// -artifact-watch interval. Default 30s.
	RotateConfirmTimeout time.Duration

	// env shares a pre-built environment in tests.
	env *montecarlo.Env
}

// LoadReport is the outcome of a fleet load run.
type LoadReport struct {
	// LoadReport is the shared tally. Accepted counts answered requests,
	// Rejected those every attempted replica shed, and RTTNs the fleet
	// latency (Decode call to answer, failover and hedging included). An
	// answer signed by a generation the run was not told about counts as a
	// mismatch, never as OtherGeneration.
	server.LoadReport
	// Failed counts requests no replica answered (transport exhaustion).
	Failed int

	// Replicas is each endpoint's final health and traffic split — the
	// per-replica request/success counts expose how failover and hedging
	// distributed the load.
	Replicas []ReplicaStats

	// Rotation is the staged-rollout report when rotation chaos mode ran;
	// RotationErr carries its failure (including a fired regression gate).
	Rotation    *RolloutReport
	RotationErr string
}

// RunLoad samples DEM syndromes and drives them through a Fleet with the
// configured concurrency, collecting per-replica traffic splits. Sampling,
// pacing, classification and verification are server.LoadRun's; this
// function owns the fleet, the worker loop and the rotation.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	// Rotation chaos mode: resolve the target generation up front, so its
	// verification tables exist before the first rotated answer arrives.
	var rotArt *artifact.Artifact
	var rotated []*montecarlo.Env
	if cfg.RotateArtifact != "" {
		if len(cfg.RotateDirs) != len(cfg.Addrs) {
			return nil, fmt.Errorf("cluster: %d rotate dirs for %d replicas — pass one watch directory per address",
				len(cfg.RotateDirs), len(cfg.Addrs))
		}
		var err error
		if rotArt, err = artifact.ReadFile(cfg.RotateArtifact); err != nil {
			return nil, err
		}
		envNew, err := montecarlo.NewEnvFromArtifact(rotArt)
		if err != nil {
			return nil, err
		}
		rotated = append(rotated, envNew)
	}
	run, err := server.NewLoadRun(cfg.LoadConfig, cfg.env, rotated...)
	if err != nil {
		return nil, err
	}
	cfg.LoadConfig = run.Config

	maxAttempts := 1
	if cfg.Failover {
		maxAttempts = len(cfg.Addrs)
	}
	// A stalled replica must not hold a dial longer than it may hold a
	// call, so the failover timeout bounds the handshake too.
	opts := server.ClientOptions{CallTimeout: cfg.CallTimeout}
	if cfg.CallTimeout > 0 {
		opts.HandshakeTimeout = cfg.CallTimeout
	}
	fleet, err := New(Config{
		Addrs:               cfg.Addrs,
		Distance:            cfg.Distance,
		CodecID:             cfg.Codec,
		Client:              opts,
		MaxAttempts:         maxAttempts,
		Hedge:               cfg.Hedge,
		HedgeAfter:          cfg.HedgeAfter,
		ExpectedFingerprint: cfg.ExpectedFingerprint,
		HealthInterval:      cfg.HealthInterval,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	rep := &LoadReport{}
	var mu sync.Mutex // guards rep and run during the run
	var next atomic.Int64
	var wg sync.WaitGroup

	// The staged rollout runs concurrently with the load once the trigger
	// fraction of shots has been offered; the load itself is the gate's
	// sample source.
	var rotWG sync.WaitGroup
	if rotArt != nil {
		revertArt, err := run.Env.Artifact()
		if err != nil {
			return nil, err
		}
		// The rollback drop must out-generation the rotation it undoes, or
		// the daemons' highest-generation-wins scan would never pick it up.
		revertArt.Meta.Generation = rotArt.Meta.Generation + 1
		addrDir := make(map[string]string, len(cfg.Addrs))
		for i, addr := range cfg.Addrs {
			addrDir[addr] = cfg.RotateDirs[i]
		}
		threshold := int64(cfg.RotateAfterFrac * float64(cfg.Shots))
		if threshold <= 0 {
			threshold = int64(cfg.Shots / 2)
		}
		rcfg := RolloutConfig{
			Next:           rotArt.Fingerprint,
			Apply:          func(addr string) error { return dropArtifact(addrDir[addr], rotArt) },
			Revert:         func(addr string) error { return dropArtifact(addrDir[addr], revertArt) },
			ConfirmTimeout: cfg.RotateConfirmTimeout,
		}
		if rcfg.ConfirmTimeout <= 0 {
			rcfg.ConfirmTimeout = 30 * time.Second
		}
		rotWG.Add(1)
		go func() {
			defer rotWG.Done()
			for next.Load() < threshold {
				time.Sleep(5 * time.Millisecond)
			}
			rr, err := fleet.StageRollout(rcfg)
			mu.Lock()
			rep.Rotation = &rr
			if err != nil {
				rep.RotationErr = err.Error()
			}
			mu.Unlock()
		}()
	}

	run.Start()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Shots {
					return
				}
				run.Pace(i, nil)
				t0 := time.Now()
				resp, err := fleet.Decode(uint64(i), cfg.DeadlineNs, run.Syndromes[i])
				rtt := time.Since(t0)
				mu.Lock()
				if err != nil {
					rep.Failed++
				} else {
					run.Record(i, resp, float64(rtt.Nanoseconds()))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rotWG.Wait()

	rep.LoadReport = *run.Finish()
	if cfg.Verify {
		// Every generation this run can meet was compiled into its verifier;
		// an answer signed by any other is a generation nobody compiled.
		rep.Mismatches += rep.OtherGeneration
		rep.OtherGeneration = 0
	}
	rep.Replicas = fleet.Stats()
	return rep, nil
}

// dropArtifact installs a bundle into a daemon's watch directory
// atomically: written under a temporary non-.astc name first, then renamed
// into place, so a concurrent re-scan never reads a half-copied bundle.
func dropArtifact(dir string, a *artifact.Artifact) error {
	name := artifact.FileName(a.Meta)
	tmp := filepath.Join(dir, name+".tmp")
	if err := a.WriteFile(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, name))
}

// Summary renders the report's headline numbers for CLI output.
func (r *LoadReport) Summary() string {
	s := fmt.Sprintf("offered %d  answered %d  rejected %d  errored %d  failed %d (%.0f/s)",
		r.Offered, r.Accepted, r.Rejected, r.Errored, r.Failed, r.AchievedPerSec)
	for _, rs := range r.Replicas {
		s += fmt.Sprintf("\n  %-22s %-11s req %-6d ok %-6d fail %-4d rej %-4d hedge %-4d probes %d/%d",
			rs.Addr, rs.State, rs.Requests, rs.Successes, rs.Failures, rs.Rejections,
			rs.Hedges, rs.Probes-rs.ProbeFailures, rs.Probes)
	}
	return s
}
