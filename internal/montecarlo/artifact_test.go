package montecarlo

import (
	"errors"
	"slices"
	"testing"

	"astrea/internal/artifact"
	"astrea/internal/decodegraph"
)

// TestNewEnvFromArtifactVerifies: hydration rebuilds the exported
// environment's tables exactly, and refuses a bundle whose detector
// coordinates disagree with its circuit or whose fingerprint disagrees
// with the rebuilt table.
func TestNewEnvFromArtifactVerifies(t *testing.T) {
	env, err := NewEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := env.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEnvFromArtifact(a)
	if err != nil {
		t.Fatalf("NewEnvFromArtifact: %v", err)
	}
	if got.Model != a.Model {
		t.Error("the environment did not adopt the artifact's model")
	}
	if fp := decodegraph.FingerprintOf(got.Model, got.GWT); fp != a.Fingerprint {
		t.Errorf("hydrated tables digest to %s, artifact says %s", fp, a.Fingerprint)
	}

	swapped := *a
	swapped.Metas = slices.Clone(a.Metas)
	swapped.Metas[0], swapped.Metas[1] = swapped.Metas[1], swapped.Metas[0]
	if _, err := NewEnvFromArtifact(&swapped); err == nil {
		t.Error("hydrated a bundle whose detector coordinates disagree with its circuit")
	}

	lying := *a
	lying.Fingerprint ^= 1
	if _, err := NewEnvFromArtifact(&lying); !errors.Is(err, artifact.ErrFingerprint) {
		t.Errorf("hydrating a bundle with a wrong fingerprint: got %v, want ErrFingerprint", err)
	}
}
