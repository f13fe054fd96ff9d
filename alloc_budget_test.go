package astrea

import (
	"math"
	"net"
	"runtime"
	"testing"

	"astrea/internal/astrea"
	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/decoder"
	"astrea/internal/montecarlo"
	"astrea/internal/mwpm"
	"astrea/internal/server"
	"astrea/internal/sparsemwpm"
	"astrea/internal/stream"
)

// Committed steady-state allocation budgets for warm d=7 decode.
// The hotalloc analyzer forbids the constructs that put allocations on the
// per-shot path statically; this test is the dynamic side of the same
// gate. Budgets are exact ceilings, not targets — lowering them is free,
// raising one is a regression that needs a reviewed justification.
const (
	// sparseMatchAllocBudget bounds Engine.Match on a warm engine: all
	// scratch (regions, labels, heaps, component solver state) is
	// engine-owned and amortised, so steady state adds nothing.
	sparseMatchAllocBudget = 0.0
	// sparseDecodeAllocBudget bounds the full adapter Decode: Match plus
	// the Result's caller-owned Pairs copy (one make per decode).
	sparseDecodeAllocBudget = 1.0
	// denseDecodeAllocBudget bounds the dense adapter's Decode the same
	// way: solver and pair-table scratch are amortised, the Pairs copy is
	// the one allocation.
	denseDecodeAllocBudget = 1.0
	// requestPathAllocBudget bounds one whole loopback round trip through
	// the daemon — client encode and send, server read, codec decode, the
	// inline Astrea decode, result encode, flush, client read and parse —
	// counted across every goroutine involved, as a fraction of a request.
	// Nothing on that path allocates: frames, requests and syndromes are
	// reused buffers on both sides, and the daemon decodes through
	// DecodeObs, whose matching stays in decoder scratch because a result
	// frame carries none. The tenth of an allocation is slack for pools
	// refilling after a GC cycle. It was 18 before the request path stopped
	// allocating per frame, and 0.86 while the daemon still built the
	// caller-owned Result.Pairs.
	requestPathAllocBudget = 0.1
	// streamQuietRowAllocBudget bounds a PushRow of a defect-free round on
	// a warm pipeline, the empty windows it cuts and commits included: the
	// row is copied into the pipeline's buffer, the window into its reused
	// window, and an empty window decodes nothing.
	streamQuietRowAllocBudget = 0.0
	// streamWindowAllocBudget bounds the allocations per cut window of a
	// warm d=5, p=1e-3 stream, sampled rounds pushed back to back. A clean
	// window allocates nothing: its syndrome is the pipeline's, and Astrea
	// answers it through DecodeObs. A forced window (about a fifth of them)
	// allocates its matching's Pairs, which the seam split reads, and the
	// carried seam its commit keeps; the rare window Astrea declines adds
	// the MWPM fallback's Pairs: 0.37 on the sampled stream, whose 986
	// windows a pass include 182 forced and 5 fallbacks. It was 3.0 while
	// every window had its own window, words and syndrome.
	streamWindowAllocBudget = 0.4
	// validateAllocBudget bounds decoder.Validate, which the benchmark runs
	// on every library decode: its one-bit-per-detector scratch is pooled.
	// It was a map, its growth and a Ones slice per call.
	validateAllocBudget = 0.0
)

// TestSparseDecodeAllocBudget pins steady-state sparse decode (warm
// environment, d=7, the strata d=7 populates) to the committed allocs/op
// budget via testing.AllocsPerRun. CI runs this as a named step so a
// regression names the offending path.
func TestSparseDecodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a d=7 Monte-Carlo environment")
	}
	cell := matchingCell{D: 7, P: 3e-3, LoHW: 2, HiHW: 14}
	env, pool := matchingPool(t, cell, 200)
	eng := sparsemwpm.New(env.Graph)
	dec := mwpm.NewWithEngine(env.GWT, eng)

	// Flagged-index views for the Engine.Match measurement (Match takes
	// positions, the adapter extracts them from the syndrome).
	flagged := make([][]int, 0, len(pool))
	for _, s := range pool {
		if ones := s.Ones(nil); len(ones) >= 2 {
			flagged = append(flagged, ones)
		}
	}
	if len(flagged) < 20 {
		t.Fatalf("only %d multi-defect syndromes in the pool", len(flagged))
	}

	// Warm every scratch buffer: the budget is a steady-state contract,
	// first-touch growth is amortised setup.
	for _, s := range pool {
		dec.Decode(s)
	}

	i := 0
	got := testing.AllocsPerRun(4*len(flagged), func() {
		eng.Match(flagged[i%len(flagged)])
		i++
	})
	if got > sparseMatchAllocBudget {
		t.Errorf("warm sparsemwpm Engine.Match: %.2f allocs/op, budget %.0f — a per-shot allocation crept into the hot loop", got, sparseMatchAllocBudget)
	}

	j := 0
	got = testing.AllocsPerRun(4*len(pool), func() {
		dec.Decode(pool[j%len(pool)])
		j++
	})
	if got > sparseDecodeAllocBudget {
		t.Errorf("warm sparse Decode: %.2f allocs/op, budget %.0f (Match + the Result.Pairs copy)", got, sparseDecodeAllocBudget)
	}
}

// TestDenseDecodeAllocBudget holds the dense adapter to the same
// discipline on its own engine, so the comparison baseline stays honest.
// It counts with allocsPerRequest rather than testing.AllocsPerRun, which
// truncates to whole allocations per call: an allocation on a fraction of
// decodes — such as one per augmentation through a blossom — would read
// as nothing. The HW 11..24 cell is the stratum the service sends to the
// exact engine, and the one where blossoms routinely form.
func TestDenseDecodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a d=7 Monte-Carlo environment")
	}
	for _, cell := range []matchingCell{
		{D: 7, P: 3e-3, LoHW: 2, HiHW: 14},
		{D: 7, P: 3e-3, LoHW: 11, HiHW: 24},
	} {
		env, pool := matchingPool(t, cell, 200)
		dec := mwpm.New(env.GWT)
		for _, s := range pool {
			dec.Decode(s)
		}
		j := 0
		got := allocsPerRequest(4*len(pool), 1, func() {
			dec.Decode(pool[j%len(pool)])
			j++
		})
		// The solver and the adapter reuse all their scratch warm; the
		// adapter adds the Pairs copy.
		if got > denseDecodeAllocBudget {
			t.Errorf("warm dense Decode, %s: %.3f allocs/op, budget %.0f (the Result.Pairs copy)", cell.name(), got, denseDecodeAllocBudget)
		} else {
			t.Logf("warm dense Decode, %s: %.3f allocs/op", cell.name(), got)
		}
	}
}

// TestAstreaDecodeAllocBudget holds the paper's own decoder to the same
// budget over the whole range it decodes (HW 1..10): one allocation per
// Decode — the caller-owned Result.Pairs, which must not alias instance
// scratch because pooled instances are reused while a Result is still being
// read — and none for BestMatching or DecodeObs, whose pairs stay in that
// scratch.
func TestAstreaDecodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a d=7 Monte-Carlo environment")
	}
	cell := matchingCell{D: 7, P: 1e-3, LoHW: 1, HiHW: astrea.MaxHW}
	env, pool := matchingPool(t, cell, 2000)
	var seen [astrea.MaxHW + 1]bool
	flagged := make([][]int, len(pool))
	for i, s := range pool {
		flagged[i] = s.Ones(nil)
		seen[len(flagged[i])] = true
	}
	for hw := 1; hw <= astrea.MaxHW; hw++ {
		if !seen[hw] {
			t.Fatalf("pool has no syndrome of Hamming weight %d", hw)
		}
	}
	dec := astrea.New(env.GWT)

	j := 0
	got := testing.AllocsPerRun(4*len(pool), func() {
		dec.Decode(pool[j%len(pool)])
		j++
	})
	if got > 1.0 {
		t.Errorf("warm Astrea Decode: %.2f allocs/op, budget 1 (the Result.Pairs copy)", got)
	}

	i := 0
	got = testing.AllocsPerRun(4*len(pool), func() {
		dec.BestMatching(flagged[i%len(flagged)])
		i++
	})
	if got > 0 {
		t.Errorf("warm Astrea BestMatching: %.2f allocs/op, budget 0 (pairs are a view of decoder scratch)", got)
	}

	k := 0
	got = testing.AllocsPerRun(4*len(pool), func() {
		dec.DecodeObs(pool[k%len(pool)])
		k++
	})
	if got > 0 {
		t.Errorf("warm Astrea DecodeObs: %.2f allocs/op, budget 0 (the matching stays in decoder scratch)", got)
	}
}

// requestPathClient serves d=7 with Astrea from an in-process daemon over
// loopback TCP and returns a client of it plus natural d=7 syndromes within
// Astrea's exact range; both go away with the test.
func requestPathClient(t *testing.T) (*server.Client, []bitvec.Vec) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a d=7 Monte-Carlo environment")
	}
	cell := matchingCell{D: 7, P: 1e-3, LoHW: 0, HiHW: astrea.MaxHW}
	env, pool := matchingPool(t, cell, 2000)
	srv, err := server.New(server.Config{
		Distances: []int{7},
		P:         1e-3,
		Decoder:   "astrea",
		Envs:      map[int]*montecarlo.Env{7: env},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := server.Dial(ln.Addr().String(), 7, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, pool
}

// raceSkip is why the request-path gates skip a -race build: the race
// detector's sync.Pool drops a share of Puts, so pooled request buffers are
// reallocated and the count measures the detector, not the path.
const raceSkip = "sync.Pool drops a share of Puts under -race: the allocation count measures the detector, not the path"

// allocsPerRequest runs f runs times and returns the heap allocations per
// request, perRun requests per call, counted across every goroutine in the
// process. testing.AllocsPerRun is no use here: it truncates to a whole
// allocation per call, so a rate of 0.9 per request reads as zero. The
// count is the least of allocRounds measurements: an allocation some other
// goroutine makes meanwhile (a GC-timed sync.Pool refill, a test helper)
// only ever adds to a round, while one the measured path makes on every
// request is in all of them.
func allocsPerRequest(runs, perRun int, f func()) float64 {
	const allocRounds = 3
	best := math.Inf(1)
	for r := 0; r < allocRounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = math.Min(best, float64(after.Mallocs-before.Mallocs)/float64(runs*perRun))
	}
	return best
}

// TestValidateAllocBudget holds the matching check to its budget over warm
// dense decodes of the stratum lib_highhw draws (d=7, p=3e-3, HW 11..24).
func TestValidateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a d=7 Monte-Carlo environment")
	}
	if raceEnabled {
		t.Skip(raceSkip)
	}
	env, pool := matchingPool(t, matchingCell{D: 7, P: 3e-3, LoHW: 11, HiHW: 24}, 200)
	dec := mwpm.New(env.GWT)
	results := make([]decoder.Result, len(pool))
	for i, s := range pool {
		results[i] = dec.Decode(s)
		if ok, why := decoder.Validate(s, results[i]); !ok {
			t.Fatalf("syndrome %d: %s", i, why)
		}
	}
	j := 0
	if got := allocsPerRequest(4*len(pool), 1, func() {
		decoder.Validate(pool[j%len(pool)], results[j%len(pool)])
		j++
	}); got > validateAllocBudget {
		t.Errorf("decoder.Validate: %.3f allocs/op, budget %.0f", got, validateAllocBudget)
	} else {
		t.Logf("decoder.Validate: %.3f allocs/op", got)
	}
}

// TestRequestPathAllocBudget holds the daemon's request path — everything
// around the decode — to its committed budget: a synchronous Client.Decode
// against an in-process daemon over loopback TCP, d=7 natural syndromes
// within Astrea's exact range.
func TestRequestPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip(raceSkip)
	}
	c, pool := requestPathClient(t)
	seq := uint64(0)
	roundTrip := func() {
		resp, err := c.Decode(seq, 1e9, pool[seq%uint64(len(pool))])
		if err != nil || resp.Rejected || resp.Err != "" {
			t.Fatalf("request %d: %+v, %v", seq, resp, err)
		}
		seq++
	}
	// Warm both sides' frame buffers, the request pool and the decoder pool.
	for i := 0; i < len(pool); i++ {
		roundTrip()
	}
	if got := allocsPerRequest(4*len(pool), 1, roundTrip); got > requestPathAllocBudget {
		t.Errorf("loopback Client.Decode round trip: %.3f allocs/op, budget %.2f — a per-request allocation crept back into the wire, queue, codec or decode path", got, requestPathAllocBudget)
	} else {
		t.Logf("loopback Client.Decode round trip: %.3f allocs/op", got)
	}
}

// TestPipelinedRequestPathAllocBudget holds the pipelined shape — eight
// Sends queued, then eight Recvs, the first of which flushes them in one
// write — to the same per-request budget.
func TestPipelinedRequestPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip(raceSkip)
	}
	const depth = 8
	c, pool := requestPathClient(t)
	seq := uint64(0)
	burst := func() {
		for i := uint64(0); i < depth; i++ {
			if err := c.Send(seq+i, 1e9, pool[(seq+i)%uint64(len(pool))]); err != nil {
				t.Fatalf("send %d: %v", seq+i, err)
			}
		}
		for i := 0; i < depth; i++ {
			resp, err := c.Recv()
			if err != nil || resp.Rejected || resp.Err != "" {
				t.Fatalf("burst from %d: %+v, %v", seq, resp, err)
			}
		}
		seq += depth
	}
	for i := 0; i < len(pool)/depth; i++ {
		burst()
	}
	if got := allocsPerRequest(4*len(pool)/depth, depth, burst); got > requestPathAllocBudget {
		t.Errorf("pipelined loopback round trip: %.3f allocs/request, budget %.2f — a per-request allocation crept into the queued-send path", got, requestPathAllocBudget)
	} else {
		t.Logf("pipelined loopback round trip: %.3f allocs/request", got)
	}
}

// TestStreamPushRowAllocBudget holds the stream pipeline's row and window
// path — PushRow, the planner's cut, the window's embedding and decode, the
// commit and its hand-off to the consumer — to its committed budgets, counted
// fractionally across every goroutine as the request-path gates are.
func TestStreamPushRowAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("samples a d=5 Monte-Carlo stream")
	}
	env, shots := matchingPool(t, matchingCell{D: 5, P: 1e-3, LoHW: 0, HiHW: 1 << 30}, 2000)
	width := stream.RowWidth(env)
	var rows []bitvec.Vec
	for _, s := range shots {
		for r := 0; r <= env.Rounds; r++ {
			row := bitvec.New(width)
			for k := 0; k < width; k++ {
				if s.Get(r*width + k) {
					row.Set(k)
				}
			}
			rows = append(rows, row)
		}
	}

	p, err := stream.New(stream.Config{Env: env, Decoder: "astrea"})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range p.Commits() {
		}
	}()
	defer func() {
		p.Abort()
		<-drained
	}()
	pushAll := func(rows []bitvec.Vec) {
		for _, row := range rows {
			if err := p.PushRow(row); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Warm the buffers, the window environment's decoders and the commit
	// channel: the budgets are steady-state contracts.
	pushAll(rows)
	quiet := make([]bitvec.Vec, 64)
	for i := range quiet {
		quiet[i] = bitvec.New(width)
	}
	pushAll(quiet)

	got := allocsPerRequest(8, len(quiet), func() { pushAll(quiet) })
	if got > streamQuietRowAllocBudget {
		t.Errorf("quiet PushRow: %.3f allocs/row, budget %.0f — a per-row or per-window allocation crept into the stream path", got, streamQuietRowAllocBudget)
	} else {
		t.Logf("quiet PushRow: %.3f allocs/row", got)
	}

	// allocsPerRequest needs the windows a pass cuts, which depend on where
	// the previous pass left the planner; count them per pass instead.
	perWindow := math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		st0 := p.Stats()
		runtime.ReadMemStats(&before)
		pushAll(rows)
		runtime.ReadMemStats(&after)
		st1 := p.Stats()
		windows := st1.Windows - st0.Windows
		perWindow = math.Min(perWindow, float64(after.Mallocs-before.Mallocs)/float64(windows))
		t.Logf("pass %d: %d windows, %d forced, %d fallback", round, windows, st1.ForcedCuts-st0.ForcedCuts, st1.Fallbacks-st0.Fallbacks)
	}
	if perWindow > streamWindowAllocBudget {
		t.Errorf("sampled d=5 stream: %.3f allocs/window, budget %.2f — forced windows' Pairs and carries are the only allocations it has", perWindow, streamWindowAllocBudget)
	} else {
		t.Logf("sampled d=5 stream: %.3f allocs/window", perWindow)
	}
}
