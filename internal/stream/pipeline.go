package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decoder"
	"astrea/internal/experiments"
	"astrea/internal/montecarlo"
	"astrea/internal/realtime"
)

// cutKind classifies why the planner ended a window.
type cutKind uint8

const (
	// cutNone: keep buffering, no window ends here.
	cutNone cutKind = iota
	// cutClean: a quiet-gap (or all-quiet length-capped) cut — exact.
	cutClean
	// cutForced: a length-capped cut with no safe gap — approximate; the
	// trailing seam is carried into the successor window.
	cutForced
	// cutFinal: the stream closed — the remainder commits with a closed
	// top edge (the final data-measurement round).
	cutFinal
)

// Pipeline decodes an unbounded round stream: PushRow feeds syndrome
// rounds in order, Commits delivers committed window corrections in round
// order, Close declares the stream complete (final data-measurement round
// received) and Abort tears it down early. Windows are cut, decoded and
// committed on the goroutine that calls PushRow/Close; New starts none.
// One goroutine may call PushRow/Close; Commits is read by one consumer;
// Abort/Stats/Err are safe from anywhere, Abort from inside the consumer
// too. The consumer must drain Commits until it closes (or call Abort), or
// PushRow stalls on backpressure by design.
type Pipeline struct {
	cfg      Config
	width    int // detector bits per round
	rowWords int // 64-bit words per buffered row
	// padMask selects the bits past width in a row's last word; they must
	// stay clear, or a defect would land on the next row's detectors.
	padMask uint64

	// Planner and decode state, owned by the PushRow/Close caller.
	buf        []uint64 // bufRows×rowWords, row-major
	rowDefects []int    // per-buffered-row defect count
	bufRows    int
	bufDefects int
	quietRun   int    // trailing defect-free rounds in the buffer
	firstRow   uint64 // absolute round index of buf row 0
	nextSeq    uint64
	// carryRows counts leading placeholder rows whose content is
	// pendingCarry: a forced predecessor's resolved seam.
	carryRows    int
	pendingCarry []uint64
	// placeholders counts raw seam rows a resumed pipeline still expects:
	// PushRow records their defect counts but zeroes their content, the
	// same placeholder-rebase an uninterrupted forced cut performs.
	placeholders int
	closed       bool
	// env is the stream's window environment, WindowRounds+2·PadRounds
	// rows; primary is the configured decoder on it, the instance nearly
	// every window decodes on, and synd the syndrome every window on it
	// is embedded in. decs holds the rest: the MWPM fallback and the
	// whole-stream window's own environment.
	env     *montecarlo.Env
	primary decoder.Decoder
	synd    bitvec.Vec
	decs    decoders
	// place embeds a window of h rounds: windowEnv on env.
	place func(h int, closedBottom, closedTop bool) (*montecarlo.Env, int, error)
	// win is the window being decoded; its words buffer is reused.
	win window
	// epoch anchors the windows' monotonic cut stamps.
	epoch time.Time

	commits chan Commit
	// send guards closing commits against a send in progress (see emit).
	send atomic.Uint32
	// stopped is set before stop closes: PushRow's stop check.
	stopped  atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once

	tracker *realtime.Tracker

	// rows and defects are Stats.Rows/Defects, counted without mu.
	rows, defects atomic.Uint64
	mu            sync.Mutex
	stats         Stats
	err           error
}

// The commits channel's send states. Only the pusher moves sendIdle →
// sendBusy → sendIdle, and whoever moves sendIdle → sendClosed closes the
// channel, so Abort on another goroutine never closes it under a send.
const (
	sendIdle uint32 = iota
	sendBusy
	sendClosed
)

// New validates the configuration and returns an idle pipeline. Its
// commits channel holds MaxInflight commits, so a slow consumer
// backpressures PushRow instead of growing a queue.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Resolve(); err != nil {
		return nil, err
	}
	// Fail fast on an unresolvable decoder name (PushRow would only hit it
	// on the first non-empty window).
	if _, err := experiments.FactoryFor(cfg.Decoder); err != nil {
		return nil, err
	}
	width := RowWidth(cfg.Env)
	p := &Pipeline{
		cfg:      cfg,
		width:    width,
		rowWords: (width + 63) / 64,
		padMask:  rowPadMask(width),
		firstRow: cfg.StartRow,
		nextSeq:  cfg.StartSeq,
		decs:     decoders{},
		epoch:    time.Now(),
		commits:  make(chan Commit, cfg.MaxInflight),
		stop:     make(chan struct{}),
		tracker:  realtime.NewTracker(cfg.RowBudgetNs),
	}
	if cfg.CarrySeam < 0 || cfg.CarrySeam >= cfg.WindowRounds {
		return nil, fmt.Errorf("stream: resumed carry seam %d outside [0, WindowRounds=%d)", cfg.CarrySeam, cfg.WindowRounds)
	}
	if cfg.CarrySeam == 0 && len(cfg.Carry) != 0 {
		return nil, errors.New("stream: Config.Carry set without Config.CarrySeam")
	}
	if cfg.CarrySeam > 0 {
		if len(cfg.Carry) != cfg.CarrySeam*p.rowWords {
			return nil, fmt.Errorf("stream: resumed carry holds %d words, want %d (seam %d × %d words/row)",
				len(cfg.Carry), cfg.CarrySeam*p.rowWords, cfg.CarrySeam, p.rowWords)
		}
		for r := 0; r < cfg.CarrySeam; r++ {
			if cfg.Carry[(r+1)*p.rowWords-1]&p.padMask != 0 {
				return nil, fmt.Errorf("%w: resumed carry row %d", ErrPadBits, r)
			}
		}
		// Pre-load the predecessor's resolved seam exactly as an
		// uninterrupted forced cut would have left it.
		p.pendingCarry = append([]uint64(nil), cfg.Carry...)
		p.carryRows = cfg.CarrySeam
		p.placeholders = cfg.CarrySeam
	}
	env, err := envOfRows(cfg.Env, cfg.WindowRounds+2*cfg.PadRounds)
	if err != nil {
		return nil, err
	}
	p.env, p.synd = env, bitvec.New(env.Graph.N)
	p.place = func(h int, closedBottom, closedTop bool) (*montecarlo.Env, int, error) {
		return windowEnv(cfg.Env, env, h, cfg.PadRounds, closedBottom, closedTop)
	}
	return p, nil
}

// rowPadMask returns the bits past width in a row's last word: none when
// the row fills it.
func rowPadMask(width int) uint64 {
	if width%64 == 0 {
		return 0
	}
	return ^uint64(0) << (width % 64)
}

// Tracker exposes the pipeline's commit-latency tracker (budget = row
// budget × committed rows per observation).
func (p *Pipeline) Tracker() *realtime.Tracker { return p.tracker }

// Commits returns the committed-correction channel. It is closed after
// Close once every window has committed, or on Abort/failure (check Err).
func (p *Pipeline) Commits() <-chan Commit { return p.commits }

// Err returns the first pipeline error (nil after a clean run; ErrAborted
// after Abort).
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats returns a snapshot of the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	s.Rows, s.Defects = p.rows.Load(), p.defects.Load()
	s.GapRounds = p.cfg.GapRounds
	s.WindowRounds = p.cfg.WindowRounds
	s.PadRounds = p.cfg.PadRounds
	s.EnvRows = p.cfg.WindowRounds + 2*p.cfg.PadRounds
	s.RowBudgetNs = p.cfg.RowBudgetNs
	s.MaxInflight = p.cfg.MaxInflight
	return s
}

// PushRow appends the next syndrome round (row.Len() must equal the
// environment's per-round detector count, with no bit set past it) and,
// when the planner cuts a window, decodes and commits it before returning.
// It blocks while the commit backlog is full.
func (p *Pipeline) PushRow(row bitvec.Vec) error {
	if p.closed {
		return ErrClosed
	}
	if row.Len() != p.width {
		return p.rowWidthErr(row.Len())
	}
	if p.stopped.Load() {
		return p.stopErr()
	}

	n := len(p.buf)
	p.buf = row.AppendWords(p.buf)
	if p.buf[len(p.buf)-1]&p.padMask != 0 {
		p.buf = p.buf[:n]
		return p.padBitsErr()
	}
	defects := row.PopCount()
	if p.placeholders > 0 {
		// A replayed raw seam row on a resumed pipeline: its resolved
		// content was pre-loaded into pendingCarry, so the buffer keeps the
		// zeroed placeholder; only the raw defect count below feeds the
		// planner (matching the uninterrupted forced-cut rebase).
		p.placeholders--
		clear(p.buf[n:])
	}
	p.rowDefects = append(p.rowDefects, defects)
	p.bufRows++
	p.bufDefects += defects
	if defects == 0 {
		p.quietRun++
	} else {
		p.quietRun = 0
		p.defects.Add(uint64(defects))
	}
	p.rows.Add(1)

	return p.cut(p.decide())
}

// rowWidthErr reports a row of the wrong width. It keeps fmt out of
// PushRow, which the hotalloc analyzer holds to allocation-free constructs.
func (p *Pipeline) rowWidthErr(got int) error {
	return fmt.Errorf("stream: row has %d bits, environment rounds have %d", got, p.width)
}

// padBitsErr reports a row with bits set past its width, kept out of
// PushRow like rowWidthErr.
func (p *Pipeline) padBitsErr() error {
	return fmt.Errorf("%w: pushed row", ErrPadBits)
}

// decide applies the planner's cut rules to the current buffer.
func (p *Pipeline) decide() cutKind {
	if p.bufDefects > 0 && p.quietRun >= p.cfg.GapRounds {
		return cutClean
	}
	if p.bufRows >= p.cfg.WindowRounds {
		if p.bufDefects == 0 {
			return cutClean // all-quiet buffer: an exact (empty) window
		}
		return cutForced
	}
	return cutNone
}

// cut commits the window the planner chose, if any, and rebases the
// buffer on the retained tail.
func (p *Pipeline) cut(k cutKind) error {
	switch k {
	case cutNone:
		return nil
	case cutClean:
		// Cut mid-gap: retain half the quiet run so both the committed
		// window and its successor keep a quiet margin at the cut.
		keep := p.cfg.GapRounds / 2
		if keep < 1 {
			keep = 1
		}
		if keep > p.quietRun {
			keep = p.quietRun
		}
		if p.bufRows-keep < p.carryRows {
			// A window takes a carried seam prefix whole, so that one
			// window re-matches every surviving seam defect; keep buffering
			// until the cut clears the prefix, or at the cap cut right after
			// it (still inside the quiet run), so no window outgrows it.
			if p.bufRows < p.cfg.WindowRounds {
				return nil
			}
			keep = p.bufRows - p.carryRows
		}
		return p.dispatch(p.bufRows-keep, 0)
	case cutForced:
		seam := p.cfg.PadRounds
		if seam > p.bufRows-1 {
			seam = p.bufRows - 1
		}
		return p.dispatch(p.bufRows, seam)
	case cutFinal:
		return p.dispatch(p.bufRows, 0)
	}
	return nil
}

// dispatch cuts rows [0, take) of the buffer as one window (retaining the
// last seam of them as the successor's carried prefix when seam > 0),
// rebases the buffer, then decodes the window and sends its commit.
func (p *Pipeline) dispatch(take, seam int) error {
	w := &p.win
	*w = window{
		seq:          p.nextSeq,
		firstRow:     p.firstRow,
		rows:         take,
		words:        append(w.words[:0], p.buf[:take*p.rowWords]...),
		closedBottom: p.firstRow == 0,
		closedTop:    p.closed && take == p.bufRows,
		forced:       seam > 0,
		carrySeam:    seam,
		cutAt:        time.Since(p.epoch),
	}
	if p.carryRows > 0 {
		// The leading placeholders become the predecessor's resolved seam:
		// its surviving defects are re-matched here, against the frontier
		// the predecessor's commit established.
		copy(w.words, p.pendingCarry)
		w.defects = countDefects(w.words)
	} else {
		for _, d := range p.rowDefects[:take] {
			w.defects += d
		}
	}
	p.nextSeq++

	// Rebase the buffer: a forced cut leaves seam placeholder rows (their
	// true content is the seam this window resolves, but their pre-clear
	// defect counts stand in for planner decisions — clearing can only make
	// them quieter); a clean cut leaves the retained quiet tail.
	committed := take - seam
	rest := p.bufRows - committed
	if seam > 0 {
		// A forced cut takes the whole buffer: only the zeroed placeholder
		// rows remain.
		p.buf = p.buf[:rest*p.rowWords]
		clear(p.buf)
	} else {
		p.buf = append(p.buf[:0], p.buf[committed*p.rowWords:p.bufRows*p.rowWords]...)
	}
	p.carryRows = seam
	p.rowDefects = append(p.rowDefects[:0], p.rowDefects[committed:]...)
	p.bufRows = rest
	p.bufDefects = 0
	for _, d := range p.rowDefects {
		p.bufDefects += d
	}
	if p.quietRun > rest {
		p.quietRun = rest
	}
	p.firstRow += uint64(committed)

	d, err := p.decodeWindow(w)
	if err != nil {
		p.fail(err)
		return err
	}
	p.pendingCarry = d.carry
	return p.emit(p.commitOf(w, d))
}

// emit sends one commit, blocking while the backlog is full. A send that
// Abort interrupts, or that races it, closes the channel on Abort's
// behalf: Abort saw the send in progress and left the close to it.
func (p *Pipeline) emit(cm Commit) error {
	if !p.send.CompareAndSwap(sendIdle, sendBusy) {
		return p.stopErr()
	}
	select {
	case p.commits <- cm:
	default:
		// The backlog is full: wait for the consumer, or for Abort.
		select {
		case p.commits <- cm:
		case <-p.stop:
		}
	}
	p.send.Store(sendIdle)
	if p.stopped.Load() {
		p.closeCommits()
		return p.stopErr()
	}
	return nil
}

// closeCommits closes the commits channel unless it is closed already or
// a send holds it (that sender closes it when it sees stop).
func (p *Pipeline) closeCommits() {
	if p.send.CompareAndSwap(sendIdle, sendClosed) {
		close(p.commits)
	}
}

// Close declares the round stream complete: the buffered remainder becomes
// the final window (its last row is the stream's data-measurement round),
// and once it commits the Commits channel closes. A stream of exactly one
// round fails with ErrOneRound, whatever that round holds: the shortest
// memory experiment is one syndrome round plus the data round. A resumed
// pipeline closed before it re-played its carried seam fails with
// ErrSeamUnreplayed. An empty stream closes cleanly with no commits.
func (p *Pipeline) Close() error {
	if p.closed {
		return ErrClosed
	}
	if p.placeholders > 0 {
		return fmt.Errorf("%w: %d rows still expected", ErrSeamUnreplayed, p.placeholders)
	}
	p.closed = true
	if p.firstRow == 0 && p.bufRows == 1 {
		p.fail(ErrOneRound)
		return ErrOneRound
	}
	var err error
	if p.bufRows > 0 {
		err = p.cut(cutFinal)
	}
	p.closeCommits()
	return err
}

// Abort stops the pipeline: the next PushRow returns ErrAborted, and
// Commits closes at once or, when a commit send is in progress, as
// soon as that send gives up. It never blocks, so the Commits consumer may
// call it. Safe to call more than once and after Close.
func (p *Pipeline) Abort() { p.fail(ErrAborted) }

// fail records the first error, stops the pipeline and closes Commits.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.stopped.Store(true)
	p.stopOnce.Do(func() { close(p.stop) })
	p.closeCommits()
}

// stopErr returns the recorded failure, defaulting to ErrAborted.
func (p *Pipeline) stopErr() error {
	if err := p.Err(); err != nil {
		return err
	}
	return ErrAborted
}

// commitOf turns one decoded window into its commit, updating counters and
// the latency tracker.
func (p *Pipeline) commitOf(w *window, d decoded) Commit {
	sojournNs := float64(time.Since(p.epoch) - w.cutAt)
	miss := !p.tracker.ObserveBudget(sojournNs, p.cfg.RowBudgetNs*float64(w.rows))

	p.mu.Lock()
	p.stats.Windows++
	p.stats.Commits++
	if d.empty {
		p.stats.EmptyWindows++
	}
	if w.forced {
		p.stats.ForcedCuts++
	}
	if d.fallback {
		p.stats.Fallbacks++
	}
	if miss {
		p.stats.DeadlineMisses++
	}
	p.stats.ObsMask ^= d.obs
	p.stats.Weight += d.weight
	if w.rows > p.stats.MaxWindowRows {
		p.stats.MaxWindowRows = w.rows
	}
	p.mu.Unlock()

	cm := Commit{
		WindowSeq:    w.seq,
		FirstRow:     w.firstRow,
		RowCount:     w.rows,
		ObsMask:      d.obs,
		Weight:       d.weight,
		Defects:      w.defects,
		SojournNs:    sojournNs,
		DeadlineMiss: miss,
		Forced:       w.forced,
		Fallback:     d.fallback,
		Empty:        d.empty,
	}
	if w.forced {
		cm.CarryRows = w.carrySeam
		cm.Carry = d.carry
	}
	return cm
}

// DecodeClosed runs a complete (closed) round stream through a pipeline
// and returns every commit in round order plus the final stats: the
// whole-shot-equivalence entry point used by tests and benchmarks, and a
// reference for driving a Pipeline by hand.
func DecodeClosed(cfg Config, rows []bitvec.Vec) ([]Commit, Stats, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	var (
		commits []Commit
		drainWG sync.WaitGroup
	)
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for c := range p.Commits() {
			commits = append(commits, c)
		}
	}()
	for _, r := range rows {
		if err := p.PushRow(r); err != nil {
			p.Abort()
			drainWG.Wait()
			return nil, p.Stats(), err
		}
	}
	if err := p.Close(); err != nil {
		p.Abort()
		drainWG.Wait()
		return nil, p.Stats(), err
	}
	drainWG.Wait()
	if err := p.Err(); err != nil {
		return nil, p.Stats(), err
	}
	return commits, p.Stats(), nil
}
