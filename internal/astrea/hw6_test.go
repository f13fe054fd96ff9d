package astrea

import (
	"testing"

	"astrea/internal/decoder"
)

// BestMatching on the degenerate inputs Astrea-G's finishing stage can hand
// it: nothing left to match, and one bit left (it takes the boundary).
func TestBestMatchingTrivial(t *testing.T) {
	_, gwt := build(t, 3, 1e-3)
	d := New(gwt)
	if pairs, total, obs := d.BestMatching(nil); pairs != nil || total != 0 || obs != 0 {
		t.Fatalf("empty matching %v %d %d", pairs, total, obs)
	}
	pairs, total, obs := d.BestMatching([]int{4})
	if len(pairs) != 1 || pairs[0] != [2]int{4, decoder.Boundary} {
		t.Fatalf("hw1 pairs %v", pairs)
	}
	if total != int(gwt.Q(4, 4)) || obs != gwt.Obs(4, 4) {
		t.Fatalf("hw1 weight %d obs %d", total, obs)
	}
}

// More than MaxHW nodes is a caller bug (Decode skips such syndromes before
// the kernel; Astrea-G hands over at most six): it must fail loudly, not
// index past the weight array.
func TestBestMatchingRejectsAbove10(t *testing.T) {
	_, gwt := build(t, 5, 1e-3)
	nodes := make([]int, MaxHW+1)
	for i := range nodes {
		nodes[i] = i
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BestMatching accepted 11 nodes")
		}
	}()
	New(gwt).BestMatching(nodes)
}

// hw6Rows is hw6Matchings in weight-array coordinates: index i names the
// i-th position pair a < b in lexicographic order.
func TestHW6RowsIndexPairs(t *testing.T) {
	var pairs [][2]uint8
	for a := uint8(0); a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			pairs = append(pairs, [2]uint8{a, b})
		}
	}
	for r, m := range hw6Matchings {
		for i, pr := range m {
			if got := pairs[hw6Rows[r][i]]; got != pr {
				t.Fatalf("row %d pair %d: index %d names %v, want %v", r, i, hw6Rows[r][i], got, pr)
			}
		}
	}
}

func TestHW6MatchingTable(t *testing.T) {
	// Every entry is a perfect matching of {0..5}; all 15 are distinct.
	seen := map[[3][2]uint8]bool{}
	for _, m := range hw6Matchings {
		var used uint8
		for _, pr := range m {
			if pr[0] >= pr[1] {
				t.Fatalf("unsorted pair %v", pr)
			}
			for _, v := range pr {
				if used&(1<<uint(v)) != 0 {
					t.Fatalf("slot reused in %v", m)
				}
				used |= 1 << uint(v)
			}
		}
		if used != 0x3F {
			t.Fatalf("matching %v does not cover all slots", m)
		}
		if seen[m] {
			t.Fatalf("duplicate matching %v", m)
		}
		seen[m] = true
	}
}
