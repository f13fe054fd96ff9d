package montecarlo

import (
	"fmt"
	"slices"

	"astrea/internal/artifact"
	"astrea/internal/surface"
)

// This file bridges environments and compiled artifacts: an Env can be
// exported as an artifact (compile once), and an artifact can be hydrated
// back into a full Env (serve anywhere) without re-running DEM extraction.
// The code layout and the noiseless-structure circuit are regenerated from
// the operating point, and the decoding graph and Global Weight Table are
// rebuilt from the artifact's model and verified against its fingerprint,
// so stratified runs and samplers keep working on a loaded Env.

// NewEnvFromArtifact hydrates a simulation environment from a compiled
// artifact. The code and circuit are rebuilt from the operating-point
// metadata (an O(d³) construction, no DEM extraction) and must reproduce
// the artifact's detector coordinates, so a bundle from a different
// operating point fails loudly instead of sampling from the wrong circuit.
// The detector error model is adopted; the decoding graph and Global
// Weight Table come from Artifact.Tables, which refuses a table whose
// digest differs from the stored fingerprint.
func NewEnvFromArtifact(a *artifact.Artifact) (*Env, error) {
	code, err := surface.New(a.Meta.Distance)
	if err != nil {
		return nil, err
	}
	cc, err := code.Memory(a.Meta.Basis, a.Meta.Rounds, surface.Uniform(a.Meta.P))
	if err != nil {
		return nil, err
	}
	if !slices.Equal(cc.DetMetas, a.Metas) {
		return nil, fmt.Errorf("montecarlo: artifact (%s) detector coordinates (%d detectors) disagree with its circuit's (%d)",
			a.Meta, len(a.Metas), len(cc.DetMetas))
	}
	graph, gwt, err := a.Tables()
	if err != nil {
		return nil, err
	}
	return &Env{
		Distance: a.Meta.Distance,
		Rounds:   a.Meta.Rounds,
		P:        a.Meta.P,
		Basis:    a.Meta.Basis,
		Code:     code,
		Circuit:  cc,
		Model:    a.Model,
		Graph:    graph,
		GWT:      gwt,
	}, nil
}

// Artifact exports the environment as a compiled artifact ready for
// Encode/WriteFile. The artifact shares the environment's model and
// fingerprints its table (no copies). Environments built from non-uniform
// noise maps export their true model faithfully, but a load on the other
// side regenerates the circuit under uniform noise at e.P — serving paths
// never consult the circuit's noise, but stratified estimation on such a
// loaded Env would sample the wrong fault distribution, so ship
// non-uniform operating points as envs, not artifacts.
func (e *Env) Artifact() (*artifact.Artifact, error) {
	if e.Circuit == nil {
		return nil, fmt.Errorf("montecarlo: environment has no circuit to export")
	}
	return artifact.New(artifact.Meta{
		Distance: e.Distance,
		Rounds:   e.Rounds,
		P:        e.P,
		Basis:    e.Basis,
	}, e.Circuit.DetMetas, e.Model, e.GWT)
}
