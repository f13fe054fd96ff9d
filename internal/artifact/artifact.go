// Package artifact compiles one decoding operating point into a versioned,
// checksummed, deterministic binary bundle. The bundle is the model, not
// the tables derived from it: like PyMatching and Sparse Blossom, which
// ship a detector error model and build their matching structures when
// they load it, an .astc file stores what the decoding graph and the
// Global Weight Table are a function of, and a loader rebuilds both
// (Artifact.Tables: decodegraph.FromModel, then the all-pairs Dijkstra of
// BuildGWT, §5.1).
//
// An artifact captures:
//
//   - the operating-point metadata (distance, rounds, physical error rate,
//     measurement basis, generation) from which the circuit can be cheaply
//     regenerated;
//   - the per-detector coordinates (stabilizer index, round);
//   - the extracted detector error model, whose sorted mechanism list is
//     also the decoding graph's canonical generating form;
//   - the decodegraph.Fingerprint of the model + quantised table, the same
//     digest a serving daemon advertises at handshake time. Tables checks
//     the rebuilt table against it, so a bundle that was tampered with or
//     produced by an incompatible builder never reaches a decoder.
//
// # File format (.astc, version 3)
//
// All integers are little-endian; floats are IEEE-754 bit patterns.
//
//	header:   magic "ASTC" | u16 version | u16 section count
//	section:  u32 tag | u64 payload length | payload | u32 CRC32C(payload)
//	trailer:  u32 CRC32C(everything before the trailer)
//
// Three sections appear in a fixed order (META, DETM, DEMM), every section
// payload has a fixed field layout, and all inputs are canonically ordered
// upstream, so encoding is deterministic: the same operating point always
// produces byte-identical files. Decode verifies the magic, version, every
// section checksum, the file checksum, every field boundary and the
// detector count the operating point implies, failing with a typed error
// at the first violation; it allocates no more than its input bounds.
// Versions 1 and 2, which also stored the weight table, are refused with
// ErrVersion.
package artifact

import (
	"fmt"
	"os"

	"astrea/internal/circuit"
	"astrea/internal/decodegraph"
	"astrea/internal/dem"
	"astrea/internal/surface"
)

// Version is the .astc format version this build writes and reads.
const Version = 3

// maxDetectors bounds the detector count Decode accepts, and so the table
// a load builds: at 9.125 B per detector pair (decodegraph.TableBytes),
// 4 096 detectors is a ~153 MB table. It admits d ≤ 19 at rounds = d.
const maxDetectors = 4096

// Meta identifies the operating point an artifact was compiled for.
type Meta struct {
	// Distance is the surface-code distance.
	Distance int
	// Rounds is the number of syndrome-extraction rounds.
	Rounds int
	// P is the uniform physical error rate the tables are programmed for.
	P float64
	// Basis is the memory-experiment basis (Z or X).
	Basis surface.Basis
	// Generation orders recalibrated bundles of one operating point for
	// zero-downtime rotation: a watch directory or SIGHUP reload picks the
	// highest generation per distance, and a rotated server reports the
	// ordinal in /stats. Zero (the default) means "unversioned".
	Generation uint64
}

// String renders the operating point the way file names and logs show it.
func (m Meta) String() string {
	s := fmt.Sprintf("d=%d r=%d p=%g basis=%s", m.Distance, m.Rounds, m.P, m.Basis)
	if m.Generation > 0 {
		s += fmt.Sprintf(" gen=%d", m.Generation)
	}
	return s
}

// Artifact is one compiled operating point: the decoded (or about-to-be
// encoded) in-memory form of an .astc bundle. All referenced structures are
// immutable after construction and safe to share across goroutines.
type Artifact struct {
	Meta Meta
	// Metas carries per-detector coordinates; len(Metas) equals
	// Model.NumDetectors.
	Metas []circuit.DetMeta
	// Model is the detector error model.
	Model *dem.Model
	// Fingerprint digests Model + the quantised GWT built from it; it is
	// what a serving daemon advertises and what Tables re-verifies.
	Fingerprint decodegraph.Fingerprint
}

// New assembles an artifact from a model and the weight table already
// built from it, validating their mutual consistency and fingerprinting
// the pair. The metas and model are adopted, not copied; the table is only
// hashed.
func New(meta Meta, metas []circuit.DetMeta, model *dem.Model, gwt *decodegraph.GWT) (*Artifact, error) {
	if model == nil || gwt == nil {
		return nil, fmt.Errorf("artifact: nil part (model=%v gwt=%v)", model != nil, gwt != nil)
	}
	if len(metas) != model.NumDetectors {
		return nil, fmt.Errorf("artifact: %d detector metas for %d detectors", len(metas), model.NumDetectors)
	}
	if gwt.N != model.NumDetectors {
		return nil, fmt.Errorf("artifact: inconsistent sizes: model %d detectors, gwt %d", model.NumDetectors, gwt.N)
	}
	return &Artifact{
		Meta:        meta,
		Metas:       metas,
		Model:       model,
		Fingerprint: decodegraph.FingerprintOf(model, gwt),
	}, nil
}

// Tables rebuilds the decoding graph and Global Weight Table from the
// artifact's model and checks the rebuilt pair against the stored
// fingerprint, failing with ErrFingerprint when they differ. Decode proves
// only that a bundle is well formed; this is where its content is proven
// to be the configuration it names. Each call builds afresh.
func (a *Artifact) Tables() (*decodegraph.Graph, *decodegraph.GWT, error) {
	graph, err := decodegraph.FromModel(a.Model, a.Metas)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: rebuilding decoding graph: %v", ErrMalformed, err)
	}
	gwt, err := graph.BuildGWT()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: building weight table: %v", ErrMalformed, err)
	}
	if fp := decodegraph.FingerprintOf(a.Model, gwt); fp != a.Fingerprint {
		return nil, nil, fmt.Errorf("%w: %s: rebuilt tables digest to %s, META says %s", ErrFingerprint, a.Meta, fp, a.Fingerprint)
	}
	return graph, gwt, nil
}

// Compile runs the full build pipeline for one uniform operating point —
// surface code, noisy memory circuit, DEM extraction, decoding graph,
// BuildGWT — and bundles the model with the fingerprint of its table.
func Compile(distance, rounds int, p float64, basis surface.Basis) (*Artifact, error) {
	code, err := surface.New(distance)
	if err != nil {
		return nil, err
	}
	cc, err := code.Memory(basis, rounds, surface.Uniform(p))
	if err != nil {
		return nil, err
	}
	model, err := dem.FromCircuit(cc)
	if err != nil {
		return nil, err
	}
	graph, err := decodegraph.FromModel(model, cc.DetMetas)
	if err != nil {
		return nil, err
	}
	gwt, err := graph.BuildGWT()
	if err != nil {
		return nil, err
	}
	return New(Meta{Distance: distance, Rounds: rounds, P: p, Basis: basis}, cc.DetMetas, model, gwt)
}

// WriteFile encodes the artifact and writes it to path.
func (a *Artifact) WriteFile(path string) error {
	return os.WriteFile(path, a.Encode(), 0o644)
}

// ReadFile reads and decodes an .astc file, running Decode's validation
// chain (magic, version, section and file checksums, field boundaries,
// detector count). The fingerprint is checked by Tables.
func ReadFile(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// FileName returns the canonical bundle name for an operating point, used
// by the `astrea compile` subcommand and recognised by `astread
// -artifact-dir`. Generations beyond zero get a -genN suffix so successive
// recalibrations of one operating point can coexist in a watch directory.
func FileName(m Meta) string {
	if m.Generation > 0 {
		return fmt.Sprintf("astrea-d%d-r%d-p%g-%s-gen%d.astc", m.Distance, m.Rounds, m.P, m.Basis, m.Generation)
	}
	return fmt.Sprintf("astrea-d%d-r%d-p%g-%s.astc", m.Distance, m.Rounds, m.P, m.Basis)
}
