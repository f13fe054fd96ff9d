package decodegraph

import (
	"testing"

	"astrea/internal/dem"
	"astrea/internal/surface"
)

// buildFP constructs the fingerprint for a distance-d memory experiment at
// physical error rate p, rebuilding every layer from scratch so the test
// exercises exactly the construction path two independent replicas take.
func buildFP(t *testing.T, d int, p float64) (Fingerprint, *dem.Model, *GWT) {
	t.Helper()
	code, err := surface.New(d)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := code.MemoryZ(d, p)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.FromCircuit(cc)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := FromModel(model, cc.DetMetas)
	if err != nil {
		t.Fatal(err)
	}
	gwt, err := graph.BuildGWT()
	if err != nil {
		t.Fatal(err)
	}
	return FingerprintOf(model, gwt), model, gwt
}

// TestFingerprintStable: two replicas building the same configuration from
// scratch must agree — that is the whole point of the handshake guard.
func TestFingerprintStable(t *testing.T) {
	a, _, _ := buildFP(t, 3, 1e-3)
	b, _, _ := buildFP(t, 3, 1e-3)
	if a != b {
		t.Fatalf("identical configurations hashed differently: %s vs %s", a, b)
	}
	if a == 0 {
		t.Fatal("fingerprint is zero (reserved for 'unknown')")
	}
}

// TestFingerprintDetectsPerturbation: a perturbed noise model, a different
// distance, and a mutated GWT entry must all change the digest — these are
// exactly the mis-deployments the cluster client quarantines.
func TestFingerprintDetectsPerturbation(t *testing.T) {
	base, model, gwt := buildFP(t, 3, 1e-3)
	if perturbed, _, _ := buildFP(t, 3, 2e-3); perturbed == base {
		t.Fatal("perturbed error rate not reflected in fingerprint")
	}
	if other, _, _ := buildFP(t, 5, 1e-3); other == base {
		t.Fatal("different distance not reflected in fingerprint")
	}
	// A stale GWT with one flipped quantised weight (e.g. built from an
	// older DEM) must hash differently even against the same model.
	gwt.q[0] ^= 1
	if FingerprintOf(model, gwt) == base {
		t.Fatal("mutated quantised weight not reflected in fingerprint")
	}
	gwt.q[0] ^= 1
	if FingerprintOf(model, gwt) != base {
		t.Fatal("fingerprint not a pure function of contents")
	}
}
