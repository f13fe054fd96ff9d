package exactmatch

import (
	"testing"
	"testing/quick"

	"astrea/internal/decodegraph"
)

// TestFoldMarginCoversRounding ties the weight table's fold margin to this
// package's fixed point. A direct chain the table drops is longer than
// bnd(i)+bnd(j)+FoldMargin; for that never to beat the through-boundary
// pair, its base weight must sit at least one unit above the two rounded
// boundary chains, which the margin guarantees once it spans two units
// (each Base rounds by at most half a unit). A finer WeightScale or a
// smaller margin fails here before it can move a decision.
func TestFoldMarginCoversRounding(t *testing.T) {
	if decodegraph.FoldMargin*WeightScale < 2 {
		t.Fatalf("FoldMargin %g spans %g fixed-point units, want ≥ 2", decodegraph.FoldMargin, decodegraph.FoldMargin*WeightScale)
	}
	f := func(a, b uint32) bool {
		bi, bj := float64(a)/(1<<26), float64(b)/(1<<26) // [0, 64) decades
		direct := bi + bj + decodegraph.FoldMargin
		return Base(direct) >= Base(bi)+Base(bj)+1 &&
			Lift(Base(direct), 0) > Lift(Base(bi), TieBound(1)-1)+Lift(Base(bj), TieBound(1)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100000}); err != nil {
		t.Fatal(err)
	}
}
