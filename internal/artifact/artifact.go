// Package artifact compiles one decoding operating point into a versioned,
// checksummed, deterministic binary bundle — the split PyMatching and Sparse
// Blossom apply to matching decoders, brought to this reproduction: build
// the expensive tables once (surface code → noisy circuit → detector error
// model → decoding graph → Global Weight Table, including the all-pairs
// Dijkstra of §5.1), serialize them, and let every serving process load the
// result instead of rebuilding it.
//
// An artifact captures everything a decoder pool needs:
//
//   - the operating-point metadata (distance, rounds, physical error rate,
//     measurement basis) from which the circuit can be cheaply regenerated;
//   - the per-detector coordinates (stabilizer index, round);
//   - the extracted detector error model;
//   - the Global Weight Table in float, quantised and observable-parity
//     form (and the direct-path tables used by the boundary-duplication
//     MWPM formulation);
//   - the decodegraph.Fingerprint of the model + quantised table, the same
//     digest a serving daemon advertises at handshake time.
//
// The sparse decoding graph is serialized in its canonical generating form:
// the DEM mechanism list, which decodegraph.FromModel consumes in sorted
// order. Rebuilding the graph from that list at load time is O(edges) and
// reproduces the original adjacency byte-for-byte — storing the adjacency
// itself could only introduce an inconsistency the generating form cannot
// express.
//
// # File format (.astc, versions 1 and 2)
//
// All integers are little-endian; floats are IEEE-754 bit patterns.
//
//	header:   magic "ASTC" | u16 version | u16 section count
//	section:  u32 tag | u64 payload length | payload | u32 CRC32C(payload)
//	trailer:  u32 CRC32C(everything before the trailer)
//
// Version 2 differs from version 1 only in the META payload, which gains a
// trailing u64 generation ordinal (zero-downtime rotation's "which bundle
// is newer" order); a generation-0 artifact always encodes as version 1,
// so the two layouts never alias.
//
// Sections appear in a fixed order (META, DETM, DEMM, GWTB), every section
// payload has a fixed field layout, and all inputs are canonically ordered
// upstream, so encoding is deterministic: the same operating point always
// produces byte-identical files. Decode verifies the magic, version, every
// section checksum, the file checksum, every field boundary, and finally
// that the stored fingerprint matches one recomputed from the decoded model
// and table, failing with a typed error at the first violation.
package artifact

import (
	"fmt"
	"os"

	"astrea/internal/circuit"
	"astrea/internal/decodegraph"
	"astrea/internal/dem"
	"astrea/internal/surface"
)

// Version is the baseline .astc format version. Artifacts carrying a
// non-zero Generation encode as VersionGeneration instead (the META section
// gains a trailing generation ordinal); Decode accepts both.
const Version = 1

// VersionGeneration is the .astc format version whose META section carries
// a generation ordinal, used by zero-downtime artifact rotation to order
// recalibrated bundles for one operating point. A generation-0 artifact
// still encodes as version 1 byte for byte, so rotation metadata changes
// nothing for existing bundles.
const VersionGeneration = 2

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
	// ordinal in /stats. Zero (the default) means "unversioned" and keeps
	// the encoded file byte-identical to the version-1 format.
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
	// Graph is the sparse decoding graph (rebuilt from Model on decode).
	Graph *decodegraph.Graph
	// GWT is the Global Weight Table.
	GWT *decodegraph.GWT
	// Fingerprint digests Model + the quantised GWT; it is what a serving
	// daemon advertises and what Decode re-verifies.
	Fingerprint decodegraph.Fingerprint
}

// New assembles an artifact from already-built parts, validating their
// mutual consistency and computing the fingerprint. The parts are adopted,
// not copied.
func New(meta Meta, metas []circuit.DetMeta, model *dem.Model, graph *decodegraph.Graph, gwt *decodegraph.GWT) (*Artifact, error) {
	if model == nil || graph == nil || gwt == nil {
		return nil, fmt.Errorf("artifact: nil part (model=%v graph=%v gwt=%v)", model != nil, graph != nil, gwt != nil)
	}
	if len(metas) != model.NumDetectors {
		return nil, fmt.Errorf("artifact: %d detector metas for %d detectors", len(metas), model.NumDetectors)
	}
	if graph.N != model.NumDetectors || gwt.N != model.NumDetectors {
		return nil, fmt.Errorf("artifact: inconsistent sizes: model %d detectors, graph %d, gwt %d",
			model.NumDetectors, graph.N, gwt.N)
	}
	return &Artifact{
		Meta:        meta,
		Metas:       metas,
		Model:       model,
		Graph:       graph,
		GWT:         gwt,
		Fingerprint: decodegraph.FingerprintOf(model, gwt),
	}, nil
}

// Compile runs the full build pipeline for one uniform operating point —
// surface code, noisy memory circuit, DEM extraction, decoding graph,
// BuildGWT — and bundles the result. This is the expensive path the rest of
// the stack avoids by loading the encoded artifact instead.
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
	return New(Meta{Distance: distance, Rounds: rounds, P: p, Basis: basis}, cc.DetMetas, model, graph, gwt)
}

// WriteFile encodes the artifact and writes it to path.
func (a *Artifact) WriteFile(path string) error {
	return os.WriteFile(path, a.Encode(), 0o644)
}

// ReadFile reads and decodes an .astc file, running the full validation
// chain (magic, version, section and file checksums, field boundaries,
// fingerprint).
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
