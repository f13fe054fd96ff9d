package stream

import (
	"fmt"
	"math/bits"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decoder"
	"astrea/internal/experiments"
	"astrea/internal/montecarlo"
)

// decoderKey names one decoder instance: the decoder by name, built on one
// window environment.
type decoderKey struct {
	env *montecarlo.Env
	dec string
}

// decoders holds a pipeline's decoder instances other than its primary
// (the MWPM fallback, and the configured decoder on a whole-stream window's
// own environment), built on first use and released with the pipeline.
// Most decoders are stateful (scratch buffers) and not concurrency safe;
// only the pushing goroutine touches them.
type decoders map[decoderKey]decoder.Decoder

// decode runs the named decoder on the syndrome, through decodeSlot on the
// map's instance for (env, name).
func (decs decoders) decode(env *montecarlo.Env, name string, synd bitvec.Vec) (decoder.Result, error) {
	key := decoderKey{env: env, dec: name}
	d, ok := decs[key]
	res, err := decodeSlot(&d, env, name, synd, true)
	switch {
	case d == nil:
		delete(decs, key)
	case !ok:
		decs[key] = d
	}
	return res, err
}

// decodeSlot runs the named decoder held in *slot on the syndrome, building
// it on env first when the slot is empty. An instance whose decode panics
// is dropped — its scratch state is unknowable — and the panic becomes an
// error.
func decodeSlot(slot *decoder.Decoder, env *montecarlo.Env, name string, synd bitvec.Vec, pairs bool) (decoder.Result, error) {
	if *slot == nil {
		d, err := newDecoder(env, name)
		if err != nil {
			return decoder.Result{}, err
		}
		*slot = d
	}
	res, err := guardedDecode(*slot, synd, pairs)
	if err != nil {
		*slot = nil
	}
	return res, err
}

// newDecoder builds the named decoder on env.
func newDecoder(env *montecarlo.Env, name string) (decoder.Decoder, error) {
	factory, err := experiments.FactoryFor(name)
	if err != nil {
		return nil, err
	}
	return factory(env)
}

// guardedDecode runs d on the syndrome — through DecodeObs when the caller
// needs no pairs and d offers it — and turns a panic into an error: one bad
// window must not kill the process, mirroring the serving layer's fault
// contract.
func guardedDecode(d decoder.Decoder, synd bitvec.Vec, pairs bool) (res decoder.Result, err error) {
	defer recoverDecode(d, &err)
	if od, ok := d.(decoder.ObsDecoder); ok && !pairs {
		return od.DecodeObs(synd), nil
	}
	return d.Decode(synd), nil
}

// recoverDecode is guardedDecode's deferred panic handler.
func recoverDecode(d decoder.Decoder, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("stream: decoder %s panicked: %v", d.Name(), r)
	}
}

// window is one planned slice of the round stream, cut and ready to decode.
type window struct {
	seq      uint64
	firstRow uint64
	rows     int      // committed height in rounds
	words    []uint64 // rows×rowWords detector bits, row-major
	defects  int
	// closedBottom/closedTop mark real stream edges: the stream's init
	// round and its final data-measurement round. Open edges are padded in
	// the embedded environment instead.
	closedBottom, closedTop bool
	// forced marks a window produced by a forced (length-capped) cut;
	// carrySeam is the seam height carried into the successor window.
	forced    bool
	carrySeam int
	// cutAt is the cut's monotonic time since the pipeline's epoch; commit
	// latency is measured from here.
	cutAt time.Duration
}

// decoded is a window's decode outcome.
type decoded struct {
	obs      uint64
	weight   float64
	fallback bool
	empty    bool
	// carry is a forced window's resolved seam: the successor window's
	// leading rows, surfaced on the commit so a resumed pipeline can be
	// restarted from this window's watermark.
	carry []uint64
}

// envOfRows returns base's operating point with detRows detector rows:
// base itself when the heights agree (artifact-served operating points
// never pass through the shared cache), otherwise the shared cache's.
func envOfRows(base *montecarlo.Env, detRows int) (*montecarlo.Env, error) {
	if detRows == base.Rounds+1 {
		return base, nil
	}
	env, err := montecarlo.SharedEnvBasis(base.Basis, base.Distance, detRows-1, base.P)
	if err != nil {
		return nil, fmt.Errorf("stream: window environment (d=%d rounds=%d): %w", base.Distance, detRows-1, err)
	}
	return env, nil
}

// windowEnv resolves the environment a window of h rounds embeds in and the
// row offset at which its first row lands there. Every window embeds in env,
// the stream's environment of WindowRounds+2·pad rows, so it never holds a
// window taller than WindowRounds. A closed bottom pins the window to row 0
// (the init-comparison row), a closed top pins its last row to the final
// data-measurement row, and an open edge keeps at least pad defect-free
// rows of padding. A window closed at both ends is the whole stream and
// gets an environment of its exact height from base's operating point.
func windowEnv(base, env *montecarlo.Env, h, pad int, closedBottom, closedTop bool) (*montecarlo.Env, int, error) {
	rows := env.Rounds + 1
	if h > rows-2*pad {
		return nil, 0, fmt.Errorf("stream: window of %d rounds is taller than the %d-round cap of its %d-row environment", h, rows-2*pad, rows)
	}
	switch {
	case closedBottom && closedTop:
		env, err := envOfRows(base, h)
		return env, 0, err
	case closedBottom:
		return env, 0, nil
	case closedTop:
		return env, rows - h, nil
	}
	return env, pad, nil
}

// decodeWindow decodes one window on its embedded environment and splits
// the matching at a forced seam, falling back to exact MWPM when the
// configured decoder declines the window or reports no matching to split.
func (p *Pipeline) decodeWindow(w *window) (decoded, error) {
	if w.defects == 0 {
		// Nothing to match: a quiet window, or one whose every defect lived
		// in the carried prefix and was consumed by the predecessor's
		// committed body. A forced one still hands its (defect-free) seam
		// to its successor.
		if !w.forced {
			return decoded{empty: true}, nil
		}
		w.rows -= w.carrySeam
		return decoded{empty: true, carry: make([]uint64, w.carrySeam*p.rowWords)}, nil
	}

	env, offset, err := p.place(w.rows, w.closedBottom, w.closedTop)
	if err != nil {
		return decoded{}, err
	}
	synd := p.synd
	if env != p.env {
		synd = bitvec.New(env.Graph.N) // the whole stream as one window
	}
	p.buildSyndrome(w, synd, offset)

	res, fellBack, err := p.decodeOn(env, synd, w.forced)
	if err != nil {
		return decoded{}, err
	}

	if !w.forced {
		return decoded{obs: res.ObsPrediction, weight: res.Weight, fallback: fellBack}, nil
	}
	return p.splitForced(w, env, synd, offset, res, fellBack)
}

// decodeOn runs the configured decoder on the syndrome, retrying with
// exact MWPM when the primary declines (e.g. Astrea beyond its
// Hamming-weight cap). pairs asks for the matching, which only a forced
// window splits. The boolean reports whether the fallback answered.
func (p *Pipeline) decodeOn(env *montecarlo.Env, synd bitvec.Vec, pairs bool) (decoder.Result, bool, error) {
	var res decoder.Result
	var err error
	if env == p.env {
		res, err = decodeSlot(&p.primary, env, p.cfg.Decoder, synd, pairs)
	} else {
		res, err = p.decs.decode(env, p.cfg.Decoder, synd)
	}
	if err != nil || !res.Skipped || p.cfg.Decoder == "mwpm" {
		return res, false, err
	}
	res, err = p.decs.decode(env, "mwpm", synd)
	return res, true, err
}

// splitForced splits a forced window's matching at the seam. Chains with at
// least one endpoint in the committed body are committed (a body–seam chain
// consumes its seam defect, clearing it from the carried rows); chains
// living entirely in the seam are deferred — their defects survive in the
// carried rows and are re-matched by the successor window against this
// window's committed frontier. Committed observable parity and weight are
// rebuilt chain by chain from the weight table, because the decoder's
// aggregate covers deferred chains too.
func (p *Pipeline) splitForced(w *window, env *montecarlo.Env, synd bitvec.Vec, offset int, res decoder.Result, fellBack bool) (decoded, error) {
	if res.Pairs == nil {
		// A table decoder predicts the observable without a matching, which
		// cannot be split; the exact fallback always produces pairs.
		var err error
		res, err = p.decs.decode(env, "mwpm", synd)
		if err != nil {
			return decoded{}, err
		}
		fellBack = true
	}

	bodyRows := w.rows - w.carrySeam
	carry := make([]uint64, w.carrySeam*p.rowWords)
	copy(carry, w.words[bodyRows*p.rowWords:])

	gwt := env.GWT
	inBody := func(det int) bool { return det/p.width-offset < bodyRows }
	clearCarried := func(det int) {
		local := det/p.width - offset - bodyRows
		bit := det % p.width
		carry[local*p.rowWords+bit>>6] &^= 1 << (uint(bit) & 63)
	}

	var obs uint64
	var weight float64
	for _, pair := range res.Pairs {
		i, j := pair[0], pair[1]
		if j == decoder.Boundary {
			if inBody(i) {
				obs ^= gwt.Obs(i, i)
				weight += gwt.BoundaryWeight(i)
			}
			continue // seam–boundary: defer, defect survives in carry
		}
		bi, bj := inBody(i), inBody(j)
		if !bi && !bj {
			continue // seam–seam: defer whole chain
		}
		obs ^= gwt.Obs(i, j)
		weight += gwt.Weight(i, j)
		if !bi {
			clearCarried(i)
		} else if !bj {
			clearCarried(j)
		}
	}

	w.rows = bodyRows
	return decoded{obs: obs, weight: weight, fallback: fellBack, carry: carry}, nil
}

// buildSyndrome embeds a window's detector bits into synd, cleared first,
// at the given row offset, walking only the set bits (none past a row's
// width, see countDefects).
func (p *Pipeline) buildSyndrome(w *window, synd bitvec.Vec, offset int) {
	synd.Reset()
	for r := 0; r < w.rows; r++ {
		embedded := (offset + r) * p.width
		for i, word := range w.words[r*p.rowWords : (r+1)*p.rowWords] {
			for ; word != 0; word &= word - 1 {
				synd.Set(embedded + i<<6 + bits.TrailingZeros64(word))
			}
		}
	}
}

// countDefects counts set detector bits across rows of packed words (bits
// past a row's width are always clear: PushRow and New refuse rows that set
// them).
func countDefects(words []uint64) int {
	n := 0
	for _, word := range words {
		n += bits.OnesCount64(word)
	}
	return n
}
