package cluster

import (
	"testing"
	"time"

	"astrea/internal/faultinject"
	"astrea/internal/server"
)

// TestFleetChaosSoak is the fleet-level chaos test: three replicas serve a
// paced stream while a faultinject.FleetPlan freezes one mid-run and kills
// another outright. The invariant under all of it: every offered request
// is answered exactly once, and every answer matches the local reference
// decoder — failover and hedging may move work between replicas but must
// never lose, duplicate, or corrupt a correction.
func TestFleetChaosSoak(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 1e-3)
	_, addr0 := startReplica(t, env)
	srv1, addr1 := startReplica(t, env)
	_, valve, addr2 := startValvedReplica(t, env)

	done, stop := faultinject.StartFleetPlan([]faultinject.FleetEvent{
		{After: 20 * time.Millisecond, Replica: 2, Action: faultinject.FleetStall},
		{After: 60 * time.Millisecond, Replica: 1, Action: faultinject.FleetKill},
		{After: 180 * time.Millisecond, Replica: 2, Action: faultinject.FleetResume},
	}, []faultinject.ReplicaControl{
		{}, // replica 0 stays healthy throughout
		{Kill: func() { srv1.Close() }},
		{Stall: valve.Stall, Resume: valve.Resume},
	})
	defer stop()

	rep, err := RunLoad(LoadConfig{
		LoadConfig: server.LoadConfig{
			Distance:   3,
			Shots:      2000,
			RatePerSec: 5000, // ~400ms run, so every scheduled fault lands mid-stream
			DeadlineNs: bigDeadline,
			Seed:       42,
			Verify:     true,
		},
		Addrs:       []string{addr0, addr1, addr2},
		Concurrency: 4,
		Failover:    true,
		Hedge:       true,
		HedgeAfter:  2 * time.Millisecond,
		CallTimeout: 250 * time.Millisecond,
		// Probe fast enough to eject the stalled replica within the run.
		HealthInterval: 25 * time.Millisecond,
		env:            env,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if rep.Accepted != rep.Offered {
		t.Errorf("answered %d of %d offered requests:\n%s", rep.Accepted, rep.Offered, rep.Summary())
	}
	if rep.Failed != 0 || rep.Errored != 0 || rep.Rejected != 0 {
		t.Errorf("failed %d, errored %d, rejected %d; want 0 of each:\n%s",
			rep.Failed, rep.Errored, rep.Rejected, rep.Summary())
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d corrupted corrections reached the caller:\n%s", rep.Mismatches, rep.Summary())
	}
	// The killed replica must have been exercised and then lost mid-stream.
	if rep.Replicas[1].Successes == 0 {
		t.Errorf("killed replica served nothing before dying:\n%s", rep.Summary())
	}
	if rep.Replicas[1].Failures == 0 {
		t.Errorf("killed replica recorded no failures after dying:\n%s", rep.Summary())
	}
	// The healthy replica carried load throughout.
	if rep.Replicas[0].Successes == 0 {
		t.Errorf("healthy replica served nothing:\n%s", rep.Summary())
	}
}
