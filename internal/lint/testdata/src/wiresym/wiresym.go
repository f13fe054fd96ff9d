// Fixture for the wiresym analyzer, loaded under rel "internal/server"
// (in scope) and rel "internal/compress" (out of scope, expecting
// silence). Boolean-tag switches and if-dispatch stand in for the real
// frame loop so the exhaustive analyzer has no constant-typed tag to
// inspect.
package fixture

import "io"

type FrameType uint8

const (
	FrameGood  FrameType = 1
	FrameNoEnc FrameType = 2 // want `frame opcode FrameNoEnc is never encoded`
	FrameNoDec FrameType = 3 // want `frame opcode FrameNoDec is never decoded`
)

const FeatureAux uint32 = 1 << 0

func writeFrame(w io.Writer, t FrameType, payload []byte) error {
	_, err := w.Write(append([]byte{byte(t)}, payload...))
	return err
}

// emit gives FrameGood and FrameNoDec their encode arms.
func emit(w io.Writer) error {
	if err := writeFrame(w, FrameGood, nil); err != nil {
		return err
	}
	return writeFrame(w, FrameNoDec, nil)
}

// dispatch gives FrameGood and FrameNoEnc their decode arms.
func dispatch(t FrameType) string {
	switch {
	case t == FrameGood:
		return "good"
	}
	if t != FrameNoEnc {
		return "unknown"
	}
	return "noenc"
}

// Good round-trips: encoder and decoder both present, both feature-blind.
type Good struct{ V uint8 }

func (g Good) AppendTo(dst []byte) []byte { return append(dst, g.V) }

func ParseGood(b []byte) (Good, error) { return Good{V: b[0]}, nil }

// NoParse has an encoder and no decoder.
type NoParse struct{}

func (n NoParse) AppendTo(dst []byte) []byte { return dst } // want `NoParse.AppendTo has no matching ParseNoParse`

// Orphan has a decoder and no encoder.
type Orphan struct{}

func ParseOrphan(b []byte) (Orphan, error) { return Orphan{}, nil } // want `ParseOrphan has no matching encoder`

// ParseHeader decodes something that is not a wire type in this package:
// no pairing demanded.
func ParseHeader(b []byte) int { return len(b) }

// Gated's codec branches on a feature bit on both sides: a second payload
// layout in the making, whichever side reads the bit.
type Gated struct {
	Features uint32
	Aux      uint8
}

func (g Gated) AppendTo(dst []byte) []byte { // want `Gated.AppendTo consults FeatureAux`
	if g.Features&FeatureAux != 0 {
		dst = append(dst, g.Aux)
	}
	return dst
}

func ParseGated(b []byte) (Gated, error) { // want `ParseGated consults FeatureAux`
	var g Gated
	if g.Features&FeatureAux != 0 && len(b) > 0 {
		g.Aux = b[0]
	}
	return g, nil
}
