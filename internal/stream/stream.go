// Package stream decodes unbounded syndrome streams by windowed MWPM, the
// Fusion-Blossom-style windowing the whole-shot service cannot offer. A
// control system produces one row of detector bits per syndrome round
// forever; this package slices that open-ended stream into time windows,
// decodes each window as it is cut, on the goroutine that pushed its last
// row, and commits the per-window corrections as one in-order stream.
// Windows are not spread across cores: Fusion Blossom does that only where
// one core cannot keep up, and here a pool of window decoders bought no
// rounds/s on two cores while adding milliseconds of commit tail.
//
// # Window planning
//
// The planner buffers rows and cuts a window when either
//
//   - a quiet gap appears: GapRounds consecutive defect-free rounds have
//     been buffered. The cut is placed inside the gap, so any two defects
//     on opposite sides of the cut are at least GapRounds+1 rounds apart.
//     GapRounds defaults to the provably safe value derived from the
//     Global Weight Table (see SafeGapRounds): cutting there is EXACT —
//     the windowed decode commits bit-identical corrections to a
//     whole-shot decode of the same closed stream; or
//   - the window-length cap WindowRounds is reached with no safe gap in
//     sight: the cut is FORCED. The trailing PadRounds seam rows are
//     carried into the next window (their defects are re-matched there,
//     against the frontier the previous commit established), and both the
//     forced commit and its successor are flagged (Commit.Forced /
//     FlagForcedSeam on the wire) because their corrections are
//     approximate.
//
// # Why a quiet-gap cut is exact
//
// Let b(i) be detector i's boundary-chain weight and λ the cheapest
// per-round time-advance edge weight in the decoding graph. A pair of
// defects separated by g rounds has direct chain weight ≥ g·λ. When
// g·λ > b(i)+b(j), the Global Weight Table assigns the pair the
// through-boundary weight b(i)+b(j) with observable parity
// bndObs(i)⊕bndObs(j) — exactly the weight AND parity of matching both
// defects to the boundary separately. So for any whole-shot optimal
// matching that crosses the gap, replacing each crossing pair with two
// boundary matches yields another optimal matching with identical total
// weight and identical observable mask, and that matching decomposes
// window by window. SafeGapRounds returns the smallest g with
// g·λ > 2·max_i b(i) — strictly, so a degenerate equal-weight crossing
// chain (whose observable parity need not match the boundary
// decomposition's) cannot survive in any optimal matching.
//
// Every window is decoded embedded in the stream's one environment of
// WindowRounds+2·PadRounds rounds, with at least PadRounds of defect-free
// padding at each open temporal edge, so every within-window chain and
// boundary chain sees the same local graph — and therefore the same
// weights and observable parities — as in the whole shot. Closed edges
// (the stream's first round, and its final data-measurement round after
// Close) align with the environment's real temporal boundaries, which
// makes the closed-stream equivalence bit-for-bit rather than approximate;
// a window closed at both ends is the whole stream and gets its exact
// height. New resolves the environment through montecarlo.SharedEnv, so
// concurrent streams at one operating point share one weight table; each
// pipeline builds its own decoder instances on it, released with it.
//
// # What a row costs
//
// A pushed row should cost about what its share of the window decodes
// costs, so the pusher's path allocates nothing and takes no lock in the
// steady state. A row is copied into the pipeline's buffer word by word,
// and its defects are counted with PopCount. Rows and Defects are atomics
// that Stats reads, and the stop check is an atomic flag. A window reuses
// the pipeline's window, words buffer and syndrome, which is filled by
// walking set bits. It decodes on the primary decoder held in a field,
// through DecodeObs unless a forced seam needs the matching. Its commit is
// handed over with a non-blocking send when the backlog has room. Only a
// forced window allocates: its matching's pairs and the carried seam its
// commit keeps (TestStreamPushRowAllocBudget). Over three traced runs of
// the stream_d5 workload on 2 cores, stream.pushrow_ns went from 314–363
// to 225–263 ns, stream.overhead_ratio (streamed against whole-shot decode
// per round) from 15.6–22.3× to 10.0–11.0×, and proc.allocs_per_op from
// 0.24 to 0.033. What is left is two monotonic clock reads per window and
// the commit channel's hand-off to the consumer.
package stream

import (
	"errors"
	"math"

	"astrea/internal/hwmodel"
	"astrea/internal/montecarlo"
)

// Sentinel errors for pipeline lifecycle violations.
var (
	// ErrClosed reports a PushRow after Close: the round stream was
	// already declared complete.
	ErrClosed = errors.New("stream: pipeline closed")
	// ErrAborted reports an operation on an aborted pipeline.
	ErrAborted = errors.New("stream: pipeline aborted")
	// ErrOneRound reports a Close after exactly one round: a stream closed
	// at both ends needs at least two rounds, a syndrome round and the
	// final data round, to be a memory experiment.
	ErrOneRound = errors.New("stream: closed after one round; a closed stream needs at least two")
	// ErrSeamUnreplayed reports a Close on a resumed pipeline before every
	// carried seam row (Config.CarrySeam) was pushed again.
	ErrSeamUnreplayed = errors.New("stream: closed before the carried seam rows were replayed")
	// ErrPadBits reports a row, pushed or carried (Config.Carry), with a
	// bit set past the row width in its last word.
	ErrPadBits = errors.New("stream: row has bits set past its width")
)

// Config parameterises one streaming pipeline.
type Config struct {
	// Env is the base operating point: its distance, physical error rate
	// and basis define the stream's row width and the embedded window
	// environments. Required. The environment must be a uniform-noise
	// memory experiment (anything montecarlo.SharedEnv can rebuild).
	Env *montecarlo.Env
	// Decoder names the per-window decoder: "astrea" (default),
	// "astrea-g", "mwpm", "uf" or "uf-unweighted". Windows the configured
	// decoder declines (e.g. Astrea beyond its Hamming-weight cap) fall
	// back to the exact MWPM pool, so streamed corrections never silently
	// degrade to identity.
	Decoder string
	// WindowRounds caps a window's committed height before the planner
	// forces a cut. Default 4×distance (raised to GapRounds+2 if needed).
	WindowRounds int
	// GapRounds is the quiet-run length that triggers an exact cut.
	// Default: SafeGapRounds(Env), the smallest provably safe gap.
	GapRounds int
	// PadRounds is the defect-free temporal padding at open window edges,
	// and the seam carried into the next window on a forced cut. Default:
	// distance; windows embed in WindowRounds+2·PadRounds rounds.
	PadRounds int
	// RowBudgetNs is the per-round real-time budget: a committed window of
	// R rounds should commit within R×RowBudgetNs of its cut. Default:
	// the paper's 1 µs syndrome period (hwmodel.RealTimeBudgetNs).
	RowBudgetNs float64
	// MaxInflight is the commit backlog: how many commits may wait in
	// Commits for the consumer before PushRow blocks. Default 4.
	MaxInflight int

	// The remaining fields restart a pipeline mid-stream (session resume
	// after a connection or replica loss). A fresh stream leaves them zero.
	//
	// StartRow is the absolute round index of the first row that will be
	// pushed: rounds [0, StartRow) were committed by a predecessor
	// pipeline. StartSeq is the window sequence the first cut will carry.
	StartRow uint64
	StartSeq uint64
	// CarrySeam declares that the predecessor's last commit was a forced
	// cut carrying this many seam rows: the first CarrySeam rows pushed
	// must be the raw seam rows (they re-play as placeholders — their raw
	// defect counts drive planner decisions but their resolved content is
	// Carry, exactly as after an uninterrupted forced cut). Carry holds the
	// predecessor's resolved seam, CarrySeam×rowWords words row-major
	// (Commit.Carry of the forced commit).
	CarrySeam int
	Carry     []uint64
}

// Resolve fills the unset fields with their defaults and raises
// WindowRounds to GapRounds+2, the configuration New runs.
func (c *Config) Resolve() error {
	if c.Env == nil {
		return errors.New("stream: Config.Env is required")
	}
	if c.Decoder == "" {
		c.Decoder = "astrea"
	}
	if c.PadRounds <= 0 {
		c.PadRounds = c.Env.Distance
	}
	if c.GapRounds <= 0 {
		c.GapRounds = SafeGapRounds(c.Env)
	}
	if c.WindowRounds <= 0 {
		c.WindowRounds = 4 * c.Env.Distance
	}
	// A window must be able to hold one full safe gap plus at least one
	// defect row on each side, or the planner could never cut cleanly.
	if min := c.GapRounds + 2; c.WindowRounds < min {
		c.WindowRounds = min
	}
	if c.RowBudgetNs <= 0 {
		c.RowBudgetNs = hwmodel.RealTimeBudgetNs
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	return nil
}

// Commit is one committed window: the correction for rounds
// [FirstRow, FirstRow+RowCount). Commits arrive in round order and the
// row ranges partition the stream — every round is committed exactly once.
type Commit struct {
	// WindowSeq numbers windows from zero in cut order.
	WindowSeq uint64
	// FirstRow is the absolute round index of the window's first row.
	FirstRow uint64
	// RowCount is the number of rounds this commit covers.
	RowCount int
	// ObsMask is the window's observable-flip correction; the stream's
	// cumulative correction is the XOR of all commits so far.
	ObsMask uint64
	// Weight is the window matching's total chain weight in decades.
	Weight float64
	// Defects is the window's defect count (set syndrome bits).
	Defects int
	// SojournNs is the commit latency: from the cut (last row buffered)
	// to the commit, i.e. the window's decode and seam split. Time spent
	// waiting in the commit backlog is not included.
	SojournNs float64
	// DeadlineMiss reports SojournNs > RowCount × Config.RowBudgetNs.
	DeadlineMiss bool
	// Forced marks a window whose cut was forced by WindowRounds rather
	// than placed in a provably safe quiet gap; its correction (and its
	// successor's) is approximate.
	Forced bool
	// Fallback marks a window the configured decoder declined and the
	// exact MWPM fallback pool answered instead.
	Fallback bool
	// Empty marks a defect-free window committed without any decode.
	Empty bool
	// CarryRows and Carry expose a Forced commit's resolved seam: the
	// CarryRows rows following this commit's range, with the defects this
	// window's matching already consumed cleared, CarryRows×rowWords words
	// row-major. A successor pipeline restarted from this commit's
	// watermark needs them (Config.CarrySeam/Carry) to reproduce the
	// uninterrupted stream bit-for-bit. Nil on clean cuts.
	CarryRows int
	Carry     []uint64
}

// Stats is a point-in-time snapshot of a pipeline's counters.
type Stats struct {
	// Rows is the number of rounds pushed; Defects the set bits among them.
	Rows    uint64
	Defects uint64
	// Windows counts cut windows; EmptyWindows the defect-free fast-path
	// subset; ForcedCuts the windows cut by the length cap; Fallbacks the
	// windows answered by the exact MWPM fallback pool.
	Windows      uint64
	EmptyWindows uint64
	ForcedCuts   uint64
	Fallbacks    uint64
	// Commits counts emitted commits and DeadlineMisses the subset that
	// overran their row budget.
	Commits        uint64
	DeadlineMisses uint64
	// ObsMask and Weight accumulate over every commit: the stream's
	// correction so far.
	ObsMask uint64
	Weight  float64
	// MaxWindowRows is the tallest committed window.
	MaxWindowRows int

	// Resolved planner parameters (configuration echo).
	GapRounds    int
	WindowRounds int
	PadRounds    int
	EnvRows      int // window environment height, WindowRounds+2·PadRounds
	RowBudgetNs  float64
	MaxInflight  int
}

// RowWidth returns the stream row width of an environment: detector bits
// per syndrome round (the serving layer sizes wire rows with it).
func RowWidth(env *montecarlo.Env) int { return env.Graph.N / (env.Rounds + 1) }

// SafeGapRounds returns the smallest quiet-gap length (in rounds) at
// which cutting a window is provably exact for the environment: the
// smallest g with g·λ > 2·max_i b(i), where λ is the cheapest per-round
// time-advance edge weight and b(i) the boundary-chain weights (see the
// package comment for the argument; the inequality is strict so
// equal-weight crossing chains are excluded too). It walks the boundary
// weights and the graph's edges once, O(N+E); New calls it once per
// pipeline when Config.GapRounds is unset.
func SafeGapRounds(env *montecarlo.Env) int {
	gwt, graph := env.GWT, env.Graph
	bmax := 0.0
	for i := 0; i < gwt.N; i++ {
		if b := gwt.BoundaryWeight(i); b > bmax {
			bmax = b
		}
	}
	// λ: the cheapest weight-per-round-advanced over every edge that
	// advances in time (diagonal space-time edges included — they advance
	// a round too, so they bound crossing paths just as pure time edges
	// do).
	lambda := math.Inf(1)
	for i := 0; i < graph.N; i++ {
		ri := graph.Metas[i].Round
		for _, e := range graph.Neighbors(i) {
			if e.To == graph.Boundary() {
				continue
			}
			dr := graph.Metas[e.To].Round - ri
			if dr < 0 {
				dr = -dr
			}
			if dr == 0 {
				continue
			}
			if perRound := e.W / float64(dr); perRound < lambda {
				lambda = perRound
			}
		}
	}
	if math.IsInf(lambda, 1) || lambda <= 0 {
		// No time edges (single-round environment): windowing degenerates,
		// any gap works. Fall back to the distance.
		return env.Distance
	}
	g := int(math.Floor(2*bmax/lambda)) + 1 // smallest integer with g·λ strictly above 2·bmax
	if g < 2 {
		g = 2
	}
	return g
}
