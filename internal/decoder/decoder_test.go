package decoder

import (
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/prng"
)

func TestValidateAcceptsNilPairs(t *testing.T) {
	s := bitvec.FromIndices(8, 1, 2)
	if ok, _ := Validate(s, Result{}); !ok {
		t.Fatal("nil pairs must validate (table decoders)")
	}
}

func TestValidateAcceptsGoodMatching(t *testing.T) {
	s := bitvec.FromIndices(8, 1, 2, 5)
	r := Result{Pairs: [][2]int{{1, 2}, {5, Boundary}}}
	if ok, why := Validate(s, r); !ok {
		t.Fatalf("valid matching rejected: %s", why)
	}
}

func TestValidateRejectsUnmatchedFlag(t *testing.T) {
	s := bitvec.FromIndices(8, 1, 2, 5)
	r := Result{Pairs: [][2]int{{1, 2}}}
	if ok, _ := Validate(s, r); ok {
		t.Fatal("unmatched flagged detector accepted")
	}
}

func TestValidateRejectsDoubleMatch(t *testing.T) {
	s := bitvec.FromIndices(8, 1, 2)
	r := Result{Pairs: [][2]int{{1, 2}, {1, Boundary}}}
	if ok, _ := Validate(s, r); ok {
		t.Fatal("double-matched detector accepted")
	}
}

func TestValidateRejectsUnflaggedMatch(t *testing.T) {
	s := bitvec.FromIndices(8, 1)
	r := Result{Pairs: [][2]int{{1, 3}}}
	if ok, _ := Validate(s, r); ok {
		t.Fatal("unflagged detector accepted in matching")
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	s := bitvec.FromIndices(8, 1)
	r := Result{Pairs: [][2]int{{1, 99}}}
	if ok, _ := Validate(s, r); ok {
		t.Fatal("out-of-range index accepted")
	}
}

type fakeDecoder struct{ safe bool }

func (f fakeDecoder) Name() string             { return "fake" }
func (f fakeDecoder) Decode(bitvec.Vec) Result { return Result{} }

type fakeSafeDecoder struct{ fakeDecoder }

func (f fakeSafeDecoder) ConcurrentSafe() bool { return f.safe }

func TestIsConcurrentSafe(t *testing.T) {
	if IsConcurrentSafe(fakeDecoder{}) {
		t.Fatal("decoder without the capability must default to unsafe")
	}
	if IsConcurrentSafe(fakeSafeDecoder{fakeDecoder{safe: false}}) {
		t.Fatal("capability reporting false must be unsafe")
	}
	if !IsConcurrentSafe(fakeSafeDecoder{fakeDecoder{safe: true}}) {
		t.Fatal("capability reporting true must be safe")
	}
}

// validateMap is the map-and-Ones Validate the scratch version replaced,
// kept as its oracle: same check order, verdicts and reasons.
func validateMap(syndrome bitvec.Vec, r Result) (bool, string) {
	if r.Pairs == nil {
		return true, ""
	}
	seen := make(map[int]bool)
	for _, p := range r.Pairs {
		for _, v := range []int{p[0], p[1]} {
			if v == Boundary {
				continue
			}
			if v < 0 || v >= syndrome.Len() {
				return false, "pair index out of range"
			}
			if !syndrome.Get(v) {
				return false, "matched an unflagged detector"
			}
			if seen[v] {
				return false, "detector matched twice"
			}
			seen[v] = true
		}
	}
	for _, idx := range syndrome.Ones(nil) {
		if !seen[idx] {
			return false, "flagged detector left unmatched"
		}
	}
	return true, ""
}

// TestValidateMatchesMapOracle runs corrupted matchings through Validate and
// its map oracle: equal verdicts and reasons, each case the expected one,
// and a validation that fails part-way leaves no trace in the next.
func TestValidateMatchesMapOracle(t *testing.T) {
	s := bitvec.FromIndices(130, 1, 2, 5, 64, 129)
	for _, c := range []struct {
		name  string
		pairs [][2]int
		why   string
	}{
		{"good", [][2]int{{1, 2}, {5, Boundary}, {64, 129}}, ""},
		{"boundary only", [][2]int{{1, Boundary}, {2, Boundary}, {5, Boundary}, {64, Boundary}, {129, Boundary}}, ""},
		{"boundary to boundary", [][2]int{{Boundary, Boundary}, {1, 2}, {5, 64}, {129, Boundary}}, ""},
		{"double match", [][2]int{{1, 2}, {5, Boundary}, {64, 129}, {2, Boundary}}, "detector matched twice"},
		{"double within a pair", [][2]int{{1, 1}, {2, 5}, {64, 129}}, "detector matched twice"},
		{"unflagged", [][2]int{{1, 2}, {5, 6}, {64, 129}}, "matched an unflagged detector"},
		{"out of range high", [][2]int{{1, 2}, {5, 130}, {64, 129}}, "pair index out of range"},
		{"out of range negative", [][2]int{{1, 2}, {5, -2}, {64, 129}}, "pair index out of range"},
		{"missing", [][2]int{{1, 2}, {64, 129}}, "flagged detector left unmatched"},
		{"empty", [][2]int{}, "flagged detector left unmatched"},
		{"boundary only, missing", [][2]int{{Boundary, Boundary}}, "flagged detector left unmatched"},
	} {
		r := Result{Pairs: c.pairs}
		ok, why := Validate(s, r)
		wantOK, wantWhy := validateMap(s, r)
		if ok != wantOK || why != wantWhy {
			t.Errorf("%s: Validate = %v %q, oracle %v %q", c.name, ok, why, wantOK, wantWhy)
		}
		if why != c.why || ok != (c.why == "") {
			t.Errorf("%s: Validate = %v %q, want %q", c.name, ok, why, c.why)
		}
	}
}

// TestValidateRandomVsMapOracle perturbs valid matchings of random
// syndromes (swapped, dropped, duplicated and invented entries) at several
// lengths, so the pooled scratch changes size, and compares every verdict
// and reason with the map oracle.
func TestValidateRandomVsMapOracle(t *testing.T) {
	rng := prng.New(58)
	for trial := 0; trial < 20000; trial++ {
		n := []int{7, 64, 65, 200}[rng.Intn(4)]
		s := bitvec.New(n)
		for i := 0; i < n; i++ {
			s.SetTo(i, rng.Intn(8) == 0)
		}
		flagged := s.Ones(nil)
		ones := make([]int, len(flagged))
		rng.Perm(ones)
		for i, k := range ones {
			ones[i] = flagged[k]
		}
		var pairs [][2]int
		for len(ones) > 0 {
			if len(ones) >= 2 && rng.Intn(3) > 0 {
				pairs = append(pairs, [2]int{ones[0], ones[1]})
				ones = ones[2:]
				continue
			}
			pairs = append(pairs, [2]int{ones[0], Boundary})
			ones = ones[1:]
		}
		for range rng.Intn(3) {
			switch k := rng.Intn(4); {
			case k == 0 && len(pairs) > 0:
				pairs = pairs[:len(pairs)-1]
			case k == 1 && len(pairs) > 0:
				pairs = append(pairs, pairs[rng.Intn(len(pairs))])
			case k == 2:
				pairs = append(pairs, [2]int{rng.Intn(n+4) - 2, Boundary})
			default:
				if len(pairs) > 0 {
					pairs[rng.Intn(len(pairs))][1] = rng.Intn(n)
				}
			}
		}
		r := Result{Pairs: pairs}
		ok, why := Validate(s, r)
		wantOK, wantWhy := validateMap(s, r)
		if ok != wantOK || why != wantWhy {
			t.Fatalf("trial %d: Validate = %v %q, oracle %v %q on %v over %v", trial, ok, why, wantOK, wantWhy, pairs, s.Ones(nil))
		}
	}
}
