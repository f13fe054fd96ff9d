package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/experiments"
	"astrea/internal/leakcheck"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
)

// rowsOf splits a whole-shot syndrome into its per-round detector rows.
func rowsOf(env *montecarlo.Env, synd bitvec.Vec) []bitvec.Vec {
	s := RowWidth(env)
	rows := make([]bitvec.Vec, env.Rounds+1)
	for r := range rows {
		row := bitvec.New(s)
		for k := 0; k < s; k++ {
			if synd.Get(r*s + k) {
				row.Set(k)
			}
		}
		rows[r] = row
	}
	return rows
}

// checkPartition asserts the commits cover rounds [0, total) in order,
// each exactly once.
func checkPartition(t *testing.T, commits []Commit, total uint64) {
	t.Helper()
	var next uint64
	for i, c := range commits {
		if c.WindowSeq != uint64(i) {
			t.Fatalf("commit %d has WindowSeq %d", i, c.WindowSeq)
		}
		if c.FirstRow != next {
			t.Fatalf("commit %d starts at row %d, want %d (gap or overlap)", i, c.FirstRow, next)
		}
		if c.RowCount <= 0 {
			t.Fatalf("commit %d covers %d rows", i, c.RowCount)
		}
		next += uint64(c.RowCount)
	}
	if next != total {
		t.Fatalf("commits cover %d rows, stream had %d", next, total)
	}
}

func TestSafeGapRounds(t *testing.T) {
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	g := SafeGapRounds(env)
	if g < 2 {
		t.Fatalf("SafeGapRounds = %d, want ≥ 2", g)
	}
	if again := SafeGapRounds(env); again != g {
		t.Fatalf("SafeGapRounds not stable: %d then %d", g, again)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without an environment")
	}
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Env: env, Decoder: "nope"}); err == nil {
		t.Fatal("New accepted an unknown decoder")
	}
}

func TestPushRowWidthMismatch(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()
	if err := p.PushRow(bitvec.New(RowWidth(env) + 1)); err == nil {
		t.Fatal("PushRow accepted a row of the wrong width")
	}
}

// TestEmptyStream closes a pipeline without pushing anything: no commits,
// no goroutines left behind.
func TestEmptyStream(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	commits, stats, err := DecodeClosed(Config{Env: env}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 0 || stats.Windows != 0 || stats.Rows != 0 {
		t.Fatalf("empty stream produced commits=%d windows=%d rows=%d", len(commits), stats.Windows, stats.Rows)
	}
}

// TestQuietStream feeds a long defect-free stream: every committed window
// must take the empty fast path, carry no correction, and still partition
// the rounds exactly.
func TestQuietStream(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	rows := make([]bitvec.Vec, total)
	for i := range rows {
		rows[i] = bitvec.New(RowWidth(env))
	}
	commits, stats, err := DecodeClosed(Config{Env: env}, rows)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, commits, total)
	if len(commits) < 2 {
		t.Fatalf("quiet stream of %d rounds produced %d windows, want several", total, len(commits))
	}
	for _, c := range commits {
		if !c.Empty || c.ObsMask != 0 || c.Weight != 0 || c.Forced {
			t.Fatalf("quiet window %+v should be an empty exact commit", c)
		}
	}
	if stats.EmptyWindows != stats.Windows || stats.ForcedCuts != 0 || stats.ObsMask != 0 {
		t.Fatalf("quiet stream stats %+v", stats)
	}
}

// TestClosedStreamEquivalence is the subsystem's core guarantee: decoding
// a closed stream window by window commits the bit-identical observable
// correction to a whole-shot decode, for d ∈ {3, 5, 7} across ≥ 1k seeded
// shots, with real multi-window splits (more windows than shots).
func TestClosedStreamEquivalence(t *testing.T) {
	leakcheck.Check(t)
	cases := []struct {
		d     int
		p     float64
		total int // rounds per shot (stream length)
		shots int
	}{
		{d: 3, p: 3e-3, total: 41, shots: 600},
		{d: 5, p: 2e-3, total: 31, shots: 300},
		{d: 7, p: 1e-3, total: 21, shots: 150},
	}
	if testing.Short() {
		for i := range cases {
			cases[i].shots /= 10
		}
	}
	for _, tc := range cases {
		env, err := montecarlo.SharedEnv(tc.d, tc.total-1, tc.p)
		if err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
		whole, err := experiments.FactoryFor("mwpm")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := whole(env)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Env:     env,
			Decoder: "mwpm",
			// A cap above the stream length excludes forced cuts: every cut
			// in this test is a provably exact quiet-gap cut.
			WindowRounds: tc.total + 1,
		}

		smp := dem.NewSampler(env.Model)
		rng := prng.New(uint64(0xA57EA<<8 | tc.d))
		synd := bitvec.New(env.Graph.N)
		var windows, shotsSplit uint64
		for shot := 0; shot < tc.shots; shot++ {
			smp.Sample(rng, synd)
			want := ref.Decode(synd)

			commits, stats, err := DecodeClosed(cfg, rowsOf(env, synd))
			if err != nil {
				t.Fatalf("d=%d shot %d: %v", tc.d, shot, err)
			}
			checkPartition(t, commits, uint64(tc.total))
			if stats.ForcedCuts != 0 {
				t.Fatalf("d=%d shot %d: unexpected forced cut", tc.d, shot)
			}
			if stats.ObsMask != want.ObsPrediction {
				t.Fatalf("d=%d shot %d: windowed obs %#x != whole-shot obs %#x (%d windows)",
					tc.d, shot, stats.ObsMask, want.ObsPrediction, stats.Windows)
			}
			if diff := math.Abs(stats.Weight - want.Weight); diff > 1e-6*(1+math.Abs(want.Weight)) {
				t.Fatalf("d=%d shot %d: windowed weight %v != whole-shot weight %v",
					tc.d, shot, stats.Weight, want.Weight)
			}
			windows += stats.Windows
			if stats.Windows > 1 {
				shotsSplit++
			}
		}
		if windows <= uint64(tc.shots) {
			t.Fatalf("d=%d: only %d windows over %d shots — streams never split, the test is vacuous",
				tc.d, windows, tc.shots)
		}
		t.Logf("d=%d: %d shots, %d windows, %d shots split", tc.d, tc.shots, windows, shotsSplit)
	}
}

// TestForcedCutsPartition drives a gap-free stream (every round has a
// defect) so every cut is forced, then checks the seam-carry bookkeeping:
// rounds still partition exactly, forced windows are flagged, and the
// stream completes.
func TestForcedCutsPartition(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const total = 120
	width := RowWidth(env)
	rng := prng.New(7)
	rows := make([]bitvec.Vec, total)
	for i := range rows {
		row := bitvec.New(width)
		row.Set(int(rng.Uint64() % uint64(width))) // ≥ 1 defect per round: no quiet gap ever
		rows[i] = row
	}
	commits, stats, err := DecodeClosed(Config{Env: env, Decoder: "mwpm"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, commits, total)
	if stats.ForcedCuts == 0 {
		t.Fatal("gap-free stream produced no forced cuts")
	}
	forced := 0
	for _, c := range commits {
		if c.Forced {
			forced++
		}
	}
	if uint64(forced) != stats.ForcedCuts {
		t.Fatalf("%d forced commits vs %d forced cuts in stats", forced, stats.ForcedCuts)
	}
	if stats.Defects == 0 || stats.Rows != total {
		t.Fatalf("stats %+v", stats)
	}
}

// TestAstreaFallback streams with the Astrea decoder at a rate that keeps
// windows under its Hamming-weight cap most of the time; windows above the
// cap must be answered by the exact MWPM fallback, never the identity.
func TestAstreaFallback(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	width := RowWidth(env)
	const total = 60
	rows := make([]bitvec.Vec, total)
	for i := range rows {
		row := bitvec.New(width)
		// Dense defects: windows accumulate > 10 defects, beyond Astrea's cap.
		for k := 0; k < width; k += 2 {
			row.Set(k)
		}
		rows[i] = row
	}
	commits, stats, err := DecodeClosed(Config{Env: env, Decoder: "astrea"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, commits, total)
	if stats.Fallbacks == 0 {
		t.Fatal("overweight windows never reached the exact fallback pool")
	}
}

// TestAbortMidStream aborts with windows in flight: PushRow must unblock
// with ErrAborted and every pipeline goroutine must exit (leakcheck).
func TestAbortMidStream(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Env: env, Decoder: "mwpm", MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	width := RowWidth(env)
	pushed := make(chan error, 1)
	go func() {
		// Nobody drains Commits, so the pipeline backpressures; PushRow must
		// unblock only through Abort.
		for i := 0; ; i++ {
			row := bitvec.New(width)
			row.Set(i % width)
			if err := p.PushRow(row); err != nil {
				pushed <- err
				return
			}
		}
	}()
	// Let the pusher wedge against the undrained pipeline, then abort.
	for p.Stats().Windows == 0 && p.Stats().Rows < 1<<16 {
		time.Sleep(time.Millisecond)
	}
	p.Abort()
	if err := <-pushed; !errors.Is(err, ErrAborted) {
		t.Fatalf("PushRow after abort returned %v, want ErrAborted", err)
	}
	if err := p.Err(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Err() = %v, want ErrAborted", err)
	}
	// Abort is idempotent, and the commits channel must be closed.
	p.Abort()
	for range p.Commits() {
	}
}

// gapFreeRow is round i of a stream with a defect in every round, so every
// window is a forced cut that decodes.
func gapFreeRow(width, i int) bitvec.Vec {
	row := bitvec.New(width)
	row.Set(i % width)
	return row
}

// TestAbortFromConsumer is the serving layer's shape: the Commits consumer
// itself calls Abort (a failed connection write) while the pusher is
// decoding or blocked sending the next commit. Commits must close exactly
// once — a second close panics, a missing one hangs the range — and the
// pusher must see ErrAborted.
func TestAbortFromConsumer(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int{1, 2, 5} {
		p, err := New(Config{Env: env, Decoder: "mwpm", MaxInflight: 1})
		if err != nil {
			t.Fatal(err)
		}
		pushed := make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				if err := p.PushRow(gapFreeRow(RowWidth(env), i)); err != nil {
					pushed <- err
					return
				}
			}
		}()
		got := 0
		for range p.Commits() {
			if got++; got == after {
				p.Abort()
			}
		}
		if err := <-pushed; !errors.Is(err, ErrAborted) {
			t.Fatalf("abort after %d commits: PushRow returned %v, want ErrAborted", after, err)
		}
		if err := p.PushRow(gapFreeRow(RowWidth(env), 0)); !errors.Is(err, ErrAborted) {
			t.Fatalf("abort after %d commits: next PushRow returned %v, want ErrAborted", after, err)
		}
		p.Abort()
	}
}

// TestAbortWhileIdle is the resume reaper's shape: a parked session's
// pipeline is aborted from another goroutine while no PushRow runs, with
// commits still waiting in the backlog. Commits must close exactly once,
// after the waiting commits, and the next PushRow must see ErrAborted.
func TestAbortWhileIdle(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Env: env, Decoder: "mwpm", MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; p.Stats().Commits < 2; i++ {
		if err := p.PushRow(gapFreeRow(RowWidth(env), i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			p.Abort()
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	n := 0
	for range p.Commits() {
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d commits after abort, want the 2 in the backlog", n)
	}
	if err := p.PushRow(gapFreeRow(RowWidth(env), 0)); !errors.Is(err, ErrAborted) {
		t.Fatalf("PushRow after abort returned %v, want ErrAborted", err)
	}
	if err := p.Err(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Err() = %v, want ErrAborted", err)
	}
}

// TestPushAfterClose checks the lifecycle sentinels.
func TestPushAfterClose(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.PushRow(bitvec.New(RowWidth(env))); !errors.Is(err, ErrClosed) {
		t.Fatalf("PushRow after Close returned %v, want ErrClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close returned %v, want ErrClosed", err)
	}
	for range p.Commits() {
	}
}

// TestOneRoundStream closes a stream after a single round. One round is
// no memory experiment (the shortest is a syndrome round plus the data
// round), so Close refuses it with ErrOneRound whether or not the round
// holds a defect, and commits nothing; two rounds decode.
func TestOneRoundStream(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	width := RowWidth(env)
	defect := bitvec.New(width)
	defect.Set(1)
	for _, tc := range []struct {
		name string
		rows []bitvec.Vec
	}{
		{"quiet", []bitvec.Vec{bitvec.New(width)}},
		{"defect", []bitvec.Vec{defect}},
	} {
		commits, stats, err := DecodeClosed(Config{Env: env}, tc.rows)
		if !errors.Is(err, ErrOneRound) {
			t.Fatalf("%s round: DecodeClosed returned %v, want ErrOneRound", tc.name, err)
		}
		if len(commits) != 0 || stats.Windows != 0 || stats.Rows != 1 {
			t.Fatalf("%s round: %d commits, %d windows, %d rows; want nothing committed from the one row pushed",
				tc.name, len(commits), stats.Windows, stats.Rows)
		}
	}
	commits, _, err := DecodeClosed(Config{Env: env}, []bitvec.Vec{defect, bitvec.New(width)})
	if err != nil {
		t.Fatalf("two-round stream: %v", err)
	}
	checkPartition(t, commits, 2)
}

// TestPadBitsRefused pins that a bit past the row width never reaches a
// syndrome: New refuses a carried seam row holding one, and PushRow refuses
// such a row without counting or buffering it. Such a bit would otherwise
// be embedded on the next row's detectors, or past the syndrome's end.
func TestPadBitsRefused(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	width := RowWidth(env)
	rowWords := (width + 63) / 64
	for _, bit := range []int{width, rowWords*64 - 1} {
		carry := make([]uint64, 2*rowWords)
		carry[2*rowWords-1] = 1 << (uint(bit) & 63)
		if _, err := New(Config{Env: env, StartRow: 10, CarrySeam: 2, Carry: carry}); !errors.Is(err, ErrPadBits) {
			t.Fatalf("New with carry bit %d set returned %v, want ErrPadBits", bit, err)
		}
	}

	p, err := New(Config{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		p.Abort()
		for range p.Commits() {
		}
	}()
	bad := bitvec.New(width)
	bad.Set(width)
	if err := p.PushRow(bad); !errors.Is(err, ErrPadBits) {
		t.Fatalf("PushRow of a row with bit %d set returned %v, want ErrPadBits", width, err)
	}
	good := bitvec.New(width)
	good.Set(0)
	if err := p.PushRow(good); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Rows != 1 || st.Defects != 1 || p.bufRows != 1 || len(p.buf) != rowWords {
		t.Fatalf("after a refused and an accepted row: %d rows, %d defects, %d buffered rows in %d words; want 1, 1, 1, %d",
			st.Rows, st.Defects, p.bufRows, len(p.buf), rowWords)
	}
}

// TestStatsDuringPush reads Stats from another goroutine while rounds are
// pushed: every read sees counts the pusher has reached, never ahead of
// it or going back, and after each PushRow returns, Rows and Defects equal
// what was pushed.
func TestStatsDuringPush(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const total = 4000
	width := RowWidth(env)
	rng := prng.New(23)
	rows := make([]bitvec.Vec, total)
	var defects uint64
	for i := range rows {
		rows[i] = bitvec.New(width)
		for k := 0; k < width; k++ {
			if rng.Uint64()%16 == 0 {
				rows[i].Set(k)
				defects++
			}
		}
	}
	p, err := New(Config{Env: env, Decoder: "mwpm"})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range p.Commits() {
		}
	}()
	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		var last Stats
		for {
			s := p.Stats()
			if s.Rows < last.Rows || s.Defects < last.Defects || s.Rows > total || s.Defects > defects {
				read <- fmt.Errorf("Stats read rows %d defects %d after rows %d defects %d (pushing %d rows, %d defects)",
					s.Rows, s.Defects, last.Rows, last.Defects, total, defects)
				return
			}
			last = s
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
		}
	}()
	var pushedDefects uint64
	for i, row := range rows {
		if err := p.PushRow(row); err != nil {
			t.Fatal(err)
		}
		pushedDefects += uint64(row.PopCount())
		if s := p.Stats(); s.Rows != uint64(i+1) || s.Defects != pushedDefects {
			t.Fatalf("after PushRow %d: Stats has rows %d defects %d, want %d and %d", i, s.Rows, s.Defects, i+1, pushedDefects)
		}
	}
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
	if s := p.Stats(); s.Rows != total || s.Defects != defects {
		t.Fatalf("closed stream: Stats has rows %d defects %d, want %d and %d", s.Rows, s.Defects, total, defects)
	}
}

// TestPipelineReleasesEnvironments is the environment-leak regression: once
// a stream has decoded on an environment and the shared cache has let go of
// its window environments, nothing in the stream layer may keep the
// environment alive.
func TestPipelineReleasesEnvironments(t *testing.T) {
	leakcheck.Check(t)
	env, err := montecarlo.NewEnv(3, 12, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	runtime.SetFinalizer(env, func(*montecarlo.Env) { close(released) })

	width := RowWidth(env)
	rng := prng.New(11)
	rows := make([]bitvec.Vec, 80)
	for i := range rows {
		row := bitvec.New(width)
		if rng.Uint64()%4 == 0 {
			row.Set(int(rng.Uint64() % uint64(width)))
		}
		rows[i] = row
	}
	_, stats, err := DecodeClosed(Config{Env: env, Decoder: "mwpm"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows < 2 || stats.Defects == 0 {
		t.Fatalf("stream decoded as %d windows with %d defects; the test needs several non-empty windows", stats.Windows, stats.Defects)
	}
	env = nil

	montecarlo.SetSharedEnvBounds(1, 1)
	montecarlo.SetSharedEnvBounds(montecarlo.DefaultEnvCacheEntries, montecarlo.DefaultEnvCacheBytes)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the stream's environment was never released: something in the stream layer still references it")
}

// panicDecoder stands in for a decoder instance whose scratch state was
// corrupted: every decode panics.
type panicDecoder struct{}

func (panicDecoder) Name() string                     { return "panicker" }
func (panicDecoder) Decode(bitvec.Vec) decoder.Result { panic("corrupted scratch") }

// TestPoisonedInstanceDropped pins the fault contract of a pipeline's
// decoder instances: a panicking decode becomes an error, the poisoned
// instance is dropped, and the next decode builds a fresh one.
func TestPoisonedInstanceDropped(t *testing.T) {
	env, err := montecarlo.SharedEnv(3, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	synd := bitvec.New(env.Graph.N)
	synd.Set(0)
	key := decoderKey{env: env, dec: "mwpm"}
	decs := decoders{key: panicDecoder{}}

	if _, err := decs.decode(env, "mwpm", synd); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("decode on a panicking instance returned %v, want a panicked error", err)
	}
	if _, ok := decs[key]; ok {
		t.Fatal("the poisoned instance was kept")
	}
	res, err := decs.decode(env, "mwpm", synd)
	if err != nil {
		t.Fatalf("decode after the poisoned instance was dropped: %v", err)
	}
	if res.Skipped || len(res.Pairs) != 1 {
		t.Fatalf("fresh instance answered %+v, want one matched pair", res)
	}
	if _, ok := decs[key].(panicDecoder); ok {
		t.Fatal("the fresh decode did not replace the poisoned instance")
	}
}

// TestWindowEnvAlignment pins the embedding rules: every window that is not
// closed at both ends lands in the stream's one environment of
// WindowRounds+2·pad rows, closed edges align with its genuine temporal
// boundaries, open edges keep at least pad rows of padding, a both-closed
// window gets its exact height (the base environment when the heights
// agree), a window taller than the cap is an error, never mis-embedded, and
// pipelines at one operating point resolve one shared environment.
func TestWindowEnvAlignment(t *testing.T) {
	base, err := montecarlo.SharedEnv(3, 20, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const pad, windowRounds = 3, 8
	p, err := New(Config{Env: base, WindowRounds: windowRounds, PadRounds: pad})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()
	if got := p.Stats().EnvRows; got != windowRounds+2*pad {
		t.Fatalf("Stats.EnvRows = %d, want WindowRounds+2·PadRounds = %d", got, windowRounds+2*pad)
	}
	env, err := montecarlo.SharedEnv(3, windowRounds+2*pad-1, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Streams at one operating point share one weight table: the pipeline
	// and a second one with the same Config embed in the cache's entry.
	q, err := New(Config{Env: base, WindowRounds: windowRounds, PadRounds: pad})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Abort()
	for i, pl := range []*Pipeline{p, q} {
		if got, _, err := pl.place(1, false, false); err != nil || got != env {
			t.Fatalf("pipeline %d embeds in a distinct environment from the shared one (err %v)", i, err)
		}
	}
	const rows = windowRounds + 2*pad

	for h := 1; h <= windowRounds; h++ {
		for _, tc := range []struct {
			bottom, top bool
			want        int // offset
		}{
			{false, false, pad},
			{true, false, 0},
			{false, true, rows - h},
		} {
			got, off, err := windowEnv(base, env, h, pad, tc.bottom, tc.top)
			if err != nil {
				t.Fatalf("h=%d closed bottom=%v top=%v: %v", h, tc.bottom, tc.top, err)
			}
			if got != env || off != tc.want {
				t.Fatalf("h=%d closed bottom=%v top=%v: env shared=%v offset %d, want the stream's env at %d",
					h, tc.bottom, tc.top, got == env, off, tc.want)
			}
			if below, above := off, rows-(off+h); (!tc.bottom && below < pad) || (!tc.top && above < pad) {
				t.Fatalf("h=%d closed bottom=%v top=%v: margins %d below / %d above, want ≥ %d at open edges",
					h, tc.bottom, tc.top, below, above, pad)
			}
		}
		if h == 1 {
			continue // a one-row stream is no memory experiment
		}
		got, off, err := windowEnv(base, env, h, pad, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds+1 != h || off != 0 {
			t.Fatalf("both-closed window of %d rounds: env of %d rows at offset %d, want its exact height at 0", h, got.Rounds+1, off)
		}
	}

	// The whole stream as one window reuses the base environment itself.
	whole, err := montecarlo.SharedEnv(3, 5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if got, off, err := windowEnv(whole, env, 6, pad, true, true); err != nil || got != whole || off != 0 {
		t.Fatalf("both-closed full-height window: env reused=%v offset=%d err=%v", got == whole, off, err)
	}

	for _, closed := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		if _, _, err := windowEnv(base, env, windowRounds+1, pad, closed[0], closed[1]); err == nil {
			t.Fatalf("closed bottom=%v top=%v: a window taller than WindowRounds was embedded", closed[0], closed[1])
		}
	}
}
