package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/stream"
)

// sampleStreamRows samples whole shots from the environment and splits each
// syndrome into per-round rows, concatenating the shots into one long
// closed round stream (the shape a control system would feed the wire).
func sampleStreamRows(env *montecarlo.Env, seed uint64, shots int) []bitvec.Vec {
	width := stream.RowWidth(env)
	detRows := env.Graph.N / width
	rng := prng.New(seed)
	smp := dem.NewSampler(env.Model)
	synd := bitvec.New(env.Model.NumDetectors)
	rows := make([]bitvec.Vec, 0, shots*detRows)
	for s := 0; s < shots; s++ {
		smp.Sample(rng, synd)
		for r := 0; r < detRows; r++ {
			row := bitvec.New(width)
			for k := 0; k < width; k++ {
				if synd.Get(r*width + k) {
					row.Set(k)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// driveStreamSession runs one complete streaming session (open, push in
// batches, close, drain) and returns the commits and closing summary.
func driveStreamSession(client *Client, opts StreamOptions, rows []bitvec.Vec) ([]StreamCorrections, StreamClosed, StreamOpenAck, error) {
	st, err := client.OpenStream(opts)
	if err != nil {
		return nil, StreamClosed{}, StreamOpenAck{}, err
	}
	sendErr := make(chan error, 1)
	go func() {
		const batch = 16
		for i := 0; i < len(rows); i += batch {
			end := i + batch
			if end > len(rows) {
				end = len(rows)
			}
			if err := st.SendRounds(rows[i:end]); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- st.CloseSend()
	}()
	var commits []StreamCorrections
	var summary StreamClosed
	for {
		ev, err := st.Recv()
		if err != nil {
			<-sendErr
			return commits, summary, st.Params(), fmt.Errorf("stream died after %d commits: %w", len(commits), err)
		}
		if ev.Closed {
			summary = ev.Summary
			break
		}
		commits = append(commits, ev.Commit)
	}
	if err := <-sendErr; err != nil {
		return commits, summary, st.Params(), fmt.Errorf("stream send: %w", err)
	}
	return commits, summary, st.Params(), nil
}

// checkCommitPartition asserts the fundamental streaming invariant on the
// client-observed commits: windows arrive in cut order and their row
// ranges partition [0, totalRows) — every round committed exactly once.
func checkCommitPartition(commits []StreamCorrections, totalRows uint64) error {
	var next uint64
	for i, cm := range commits {
		if cm.WindowSeq != uint64(i) {
			return fmt.Errorf("commit %d has window seq %d", i, cm.WindowSeq)
		}
		if cm.FirstRow != next {
			return fmt.Errorf("commit %d starts at row %d, want %d (gap, overlap or duplicate)", i, cm.FirstRow, next)
		}
		if cm.RowCount == 0 {
			return fmt.Errorf("commit %d covers zero rows", i)
		}
		next += uint64(cm.RowCount)
	}
	if next != totalRows {
		return fmt.Errorf("commits cover %d rows, want %d", next, totalRows)
	}
	return nil
}

// TestStreamSessionEndToEnd is the streaming acceptance test: a session
// over a real socket, a closed multi-shot round stream pushed through it,
// and every commit checked bit-for-bit against the same windowed decode
// run locally with the server-resolved parameters. Afterwards the
// connection must return to ordinary decode mode.
func TestStreamSessionEndToEnd(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Decoder:   "astrea",
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		Features:    FeatureStream | FeatureChecksum,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Features()&FeatureStream == 0 {
		t.Fatal("server did not accept FeatureStream")
	}

	shots := 120
	if testing.Short() {
		shots = 30
	}
	rows := sampleStreamRows(env, 0xE2E, shots)
	commits, summary, ack, err := driveStreamSession(client, StreamOptions{}, rows)
	if err != nil {
		t.Fatal(err)
	}

	if err := checkCommitPartition(commits, uint64(len(rows))); err != nil {
		t.Fatal(err)
	}
	if summary.TotalRows != uint64(len(rows)) || summary.Windows != uint64(len(commits)) {
		t.Fatalf("summary %+v disagrees with %d rows / %d commits", summary, len(rows), len(commits))
	}
	var obs uint64
	for _, cm := range commits {
		obs ^= cm.ObsMask
	}
	if obs != summary.ObsMask {
		t.Fatalf("cumulative commit obs %#x != summary obs %#x", obs, summary.ObsMask)
	}

	// Bit-for-bit equivalence with a local pipeline at the server-resolved
	// operating point: the wire adds transport, not approximation.
	local, localStats, err := stream.DecodeClosed(stream.Config{
		Env:          env,
		Decoder:      "astrea",
		WindowRounds: int(ack.WindowRounds),
		GapRounds:    int(ack.GapRounds),
		PadRounds:    int(ack.PadRounds),
		RowBudgetNs:  float64(ack.RowBudgetNs),
		MaxInflight:  int(ack.MaxInflight),
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != len(commits) {
		t.Fatalf("wire committed %d windows, local pipeline %d", len(commits), len(local))
	}
	for i, cm := range commits {
		want := local[i]
		if cm.FirstRow != want.FirstRow || int(cm.RowCount) != want.RowCount || cm.ObsMask != want.ObsMask {
			t.Fatalf("commit %d: wire {row %d n %d obs %#x} != local {row %d n %d obs %#x}",
				i, cm.FirstRow, cm.RowCount, cm.ObsMask, want.FirstRow, want.RowCount, want.ObsMask)
		}
		if wantMilli := uint64(want.Weight*1000 + 0.5); cm.WeightMilli != wantMilli {
			t.Fatalf("commit %d: weight %d milli, want %d", i, cm.WeightMilli, wantMilli)
		}
	}
	if summary.ObsMask != localStats.ObsMask {
		t.Fatalf("summary obs %#x != local stream obs %#x", summary.ObsMask, localStats.ObsMask)
	}

	// The connection is back in decode mode: an ordinary request round-trips.
	synd := bitvec.New(env.Model.NumDetectors)
	resp, err := client.Decode(77, bigDeadline, synd)
	if err != nil || resp.Rejected || resp.Err != "" {
		t.Fatalf("decode after stream close: %+v, %v", resp, err)
	}

	snap := srv.Snapshot()
	if snap.StreamsOpened != 1 || snap.StreamsCompleted != 1 || snap.StreamsAborted != 0 {
		t.Fatalf("session accounting: %+v", snap)
	}
	if snap.StreamRows != int64(len(rows)) || snap.StreamWindows != int64(len(commits)) {
		t.Fatalf("row/window accounting: %+v", snap)
	}
}

// TestRunStreamLoad drives the streaming load generator against a live
// daemon: open-loop pushing with verification on, so the run fails if any
// commit disagrees with the local windowed decode or the commit stream
// drops or duplicates a round.
func TestRunStreamLoad(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	rounds := 600
	if testing.Short() {
		rounds = 120
	}
	rep, err := RunStreamLoad(StreamLoadConfig{
		Addr:     srv.Addr().String(),
		Distance: 3,
		P:        1e-3,
		Codec:    compress.IDSparse,
		Rounds:   rounds,
		Seed:     11,
		Verify:   true,
		env:      env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds || rep.Windows == 0 {
		t.Fatalf("degenerate run: %+v", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d commits disagree with the local windowed decode", rep.Mismatches)
	}
	if len(rep.CommitLatencyNs) != rep.Windows || len(rep.ServerSojournNs) != rep.Windows {
		t.Fatalf("latency sample counts inconsistent: %d/%d/%d",
			len(rep.CommitLatencyNs), len(rep.ServerSojournNs), rep.Windows)
	}
	if rep.Summary.Windows != uint64(rep.Windows) || rep.Summary.TotalRows != uint64(rounds) {
		t.Fatalf("summary %+v disagrees with report %+v", rep.Summary, rep)
	}
	if rep.RoundsPerSec <= 0 || rep.WindowsPerSec <= 0 {
		t.Fatalf("degenerate throughput: %+v", rep)
	}
}

// TestEveryDecoderNameOpensAStream pins the one decoder-name registry: every
// name the service accepts for its request pools must also open a stream
// session on that daemon (stream.New fails fast on a name it cannot
// resolve), and the session's commits must match a local pipeline running
// the same decoder.
func TestEveryDecoderNameOpensAStream(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	for _, name := range []string{"astrea", "astrea-g", "mwpm", "mwpm-dense", "mwpm-sparse", "uf", "uf-unweighted"} {
		t.Run(name, func(t *testing.T) {
			srv := startServer(t, Config{
				Distances: []int{3},
				P:         1e-3,
				Decoder:   name,
				Envs:      map[int]*montecarlo.Env{3: env},
			})
			rep, err := RunStreamLoad(StreamLoadConfig{
				Addr:          srv.Addr().String(),
				Distance:      3,
				P:             1e-3,
				Codec:         compress.IDSparse,
				Rounds:        400,
				Seed:          5,
				Verify:        true,
				VerifyDecoder: name,
				env:           env,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Windows == 0 || rep.Mismatches != 0 {
				t.Fatalf("%d windows, %d mismatches against the local %s pipeline", rep.Windows, rep.Mismatches, name)
			}
		})
	}
}

// TestStreamRequiresFeature checks both refusal sides: a client that did
// not negotiate FeatureStream refuses OpenStream locally, and a server
// receiving a stream-open on a connection without the bit closes it as a
// protocol violation.
func TestStreamRequiresFeature(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})

	plain, err := Dial(srv.Addr().String(), 3, compress.IDSparse)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.OpenStream(StreamOptions{}); err == nil || !strings.Contains(err.Error(), "negotiate") {
		t.Fatalf("OpenStream without FeatureStream: %v", err)
	}

	// Raw stream-open on that connection: the server must drop the
	// connection (contiguous streaming cannot be error-framed per request).
	if err := WriteFrame(plain.conn, FrameStreamOpen, StreamOpen{}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(plain.conn, 0); err == nil {
		t.Fatalf("featureless connection survived a stream-open (got frame type %d)", ft)
	}
}

// TestStreamContiguityEnforced checks the mid-stream protocol guard: a
// rounds frame arriving at the wrong FirstRow (a gap or replay) tears the
// session down rather than committing corrections for rounds the server
// never saw.
func TestStreamContiguityEnforced(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		Features:    FeatureStream,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.OpenStream(StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	// A frame claiming to start at row 5 when nothing has been pushed.
	width := stream.RowWidth(env)
	payload := (compress.Sparse{}).Encode(bitvec.New(width), nil)
	bad := StreamRounds{FirstRow: 5, Count: 1, Rows: payload}
	if err := WriteFrame(client.conn, FrameStreamRounds, bad.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(client.conn, 0); err == nil {
		t.Fatalf("non-contiguous rounds accepted (got frame type %d)", ft)
	}
	if snap := srv.Snapshot(); snap.StreamsAborted != 1 {
		t.Fatalf("aborted counter %d, want 1", snap.StreamsAborted)
	}
}

// TestStreamCloseOneRound closes a session after a single round, quiet or
// with a defect, and a cold re-open before it replayed its carried seam:
// the pipeline refuses both closes, and the daemon reports why
// (stream.ErrOneRound or stream.ErrSeamUnreplayed, client faults) instead
// of only dropping the connection.
func TestStreamCloseOneRound(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	width := stream.RowWidth(env)
	defect := bitvec.New(width)
	defect.Set(0)
	for i, row := range []bitvec.Vec{bitvec.New(width), defect} {
		client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
			Features:    FeatureStream,
			CallTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = driveStreamSession(client, StreamOptions{}, []bitvec.Vec{row})
		client.Close()
		if err == nil || !strings.Contains(err.Error(), stream.ErrOneRound.Error()) ||
			!strings.Contains(err.Error(), fmt.Sprintf("status %d", StatusProtocolError)) {
			t.Fatalf("one-round session %d closed with %v, want the daemon's ErrOneRound report", i, err)
		}
		if snap := srv.Snapshot(); snap.StreamsAborted != int64(i+1) {
			t.Fatalf("aborted counter %d after %d one-round sessions", snap.StreamsAborted, i+1)
		}
	}

	client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		Features:    FeatureStream,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rowWords := (width + 63) / 64
	st, err := client.OpenStreamAt(StreamOptions{}, 40, 3, 2, make([]byte, 2*rowWords*8))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendRounds([]bitvec.Vec{bitvec.New(width)}); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := st.Recv()
		if err == nil && !ev.Closed {
			continue
		}
		if err == nil || !strings.Contains(err.Error(), stream.ErrSeamUnreplayed.Error()) ||
			!strings.Contains(err.Error(), fmt.Sprintf("status %d", StatusProtocolError)) {
			t.Fatalf("re-opened session closed mid-seam with %v, want the daemon's ErrSeamUnreplayed report", err)
		}
		break
	}
}

// TestStreamOpenCarryPadBits re-opens a stream cold with a carried seam
// whose last row sets a bit past the row width: the daemon refuses the open
// (stream.ErrPadBits) and keeps serving the connection.
func TestStreamOpenCarryPadBits(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	client, err := DialOptions(srv.Addr().String(), 3, compress.IDSparse, ClientOptions{
		Features:    FeatureStream,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	width := stream.RowWidth(env)
	rowWords := (width + 63) / 64
	carry := make([]byte, 2*rowWords*8)
	carry[len(carry)-1] = 0x80 // bit 63 of the last row's last word
	if _, err := client.OpenStreamAt(StreamOptions{}, 40, 3, 2, carry); err == nil ||
		!strings.Contains(err.Error(), stream.ErrPadBits.Error()) {
		t.Fatalf("cold re-open with a carry bit past the row width returned %v, want a refusal naming ErrPadBits", err)
	}
	if snap := srv.Snapshot(); snap.StreamsRefused != 1 || snap.StreamsOpened != 0 {
		t.Fatalf("refused %d, opened %d streams; want 1, 0", snap.StreamsRefused, snap.StreamsOpened)
	}
	rows := []bitvec.Vec{bitvec.New(width), bitvec.New(width)}
	if _, _, _, err := driveStreamSession(client, StreamOptions{}, rows); err != nil {
		t.Fatalf("stream on the same connection after the refusal: %v", err)
	}
}

// TestConcurrentStreamSessions runs several streaming sessions at the same
// operating point in parallel: they share the embedded environments
// through montecarlo's shared cache, each on decoder instances of its own,
// and each session's commits must still partition its own round stream (no
// cross-session bleed).
func TestConcurrentStreamSessions(t *testing.T) {
	leakCheck(t)
	env := testEnv(t, 3)
	srv := startServer(t, Config{
		Distances: []int{3},
		P:         1e-3,
		Envs:      map[int]*montecarlo.Env{3: env},
	})
	addr := srv.Addr().String()

	const sessions = 4
	shots := 40
	if testing.Short() {
		shots = 12
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := DialOptions(addr, 3, compress.IDSparse, ClientOptions{
				Features:    FeatureStream,
				CallTimeout: 30 * time.Second,
			})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			rows := sampleStreamRows(env, uint64(0xC0DE+g), shots)
			commits, summary, _, err := driveStreamSession(client, StreamOptions{}, rows)
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", g, err)
				return
			}
			if err := checkCommitPartition(commits, uint64(len(rows))); err != nil {
				errs <- fmt.Errorf("session %d: %w", g, err)
				return
			}
			if summary.TotalRows != uint64(len(rows)) {
				errs <- fmt.Errorf("session %d summary rows %d, want %d", g, summary.TotalRows, len(rows))
				return
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The server writes each summary before it counts the session
	// completed, so a client can hold its summary while the count still
	// lags. Close joins every connection handler, and with them the counts.
	srv.Close()
	if snap := srv.Snapshot(); snap.StreamsCompleted != sessions {
		t.Fatalf("completed %d sessions, want %d", snap.StreamsCompleted, sessions)
	}
}

// TestStreamOpenDetectorCap resolves adversarial stream opens — window, pad
// and gap at their uint16 maximum, alone and together — at every served
// distance. The window environment the pipeline embeds every window in,
// EnvRows = WindowRounds+2·PadRounds rows of the row width, must stay within
// maxStreamDetRows detectors, its dense weight tables (N² × 33 B, the shared
// cache's footprint estimate) within the cache's byte bound, and the
// resolved configuration must be one New keeps as it is. The capped
// environments weigh ~138 MB each, so only the default open is built, to
// check that the pipeline's Stats.EnvRows is that same sum.
func TestStreamOpenDetectorCap(t *testing.T) {
	leakCheck(t)
	if n := int64(maxStreamDetRows); n*n*33 > montecarlo.DefaultEnvCacheBytes {
		t.Fatalf("a %d-detector window table weighs %d B, over the shared cache's %d B bound",
			n, n*n*33, montecarlo.DefaultEnvCacheBytes)
	}
	envs := map[int]*montecarlo.Env{}
	for _, d := range []int{3, 5, 7} {
		envs[d] = testEnv(t, d)
	}
	srv := startServer(t, Config{Distances: []int{3, 5, 7}, P: 1e-3, Decoder: "astrea", Envs: envs})
	const m = 1<<16 - 1
	reqs := []StreamOpen{
		{WindowRounds: m, PadRounds: m},
		{WindowRounds: m, PadRounds: m, GapRounds: m},
		{WindowRounds: m},
		{PadRounds: m},
		{GapRounds: m},
		{WindowRounds: 1, PadRounds: m, GapRounds: m},
		{WindowRounds: m, PadRounds: 1, GapRounds: 1},
		{},
	}
	for _, d := range srv.Distances() {
		env := envs[d]
		width := stream.RowWidth(env)
		for _, req := range reqs {
			cfg, err := resolveStreamConfig(env, "astrea", req)
			if err != nil {
				t.Fatal(err)
			}
			again := cfg
			if err := again.Resolve(); err != nil || again.WindowRounds != cfg.WindowRounds ||
				again.GapRounds != cfg.GapRounds || again.PadRounds != cfg.PadRounds {
				t.Fatalf("d=%d %+v: resolved window %d, gap %d, pad %d; New would run window %d, gap %d, pad %d (%v)",
					d, req, cfg.WindowRounds, cfg.GapRounds, cfg.PadRounds, again.WindowRounds, again.GapRounds, again.PadRounds, err)
			}
			if cfg.PadRounds < 1 || cfg.GapRounds < 1 {
				t.Fatalf("d=%d %+v: resolved gap %d, pad %d", d, req, cfg.GapRounds, cfg.PadRounds)
			}
			if rows := cfg.WindowRounds + 2*cfg.PadRounds; rows*width > maxStreamDetRows {
				t.Fatalf("d=%d %+v: window environment of %d rows × %d detectors exceeds the %d-detector cap",
					d, req, rows, width, maxStreamDetRows)
			}
		}
		cfg, err := resolveStreamConfig(env, "astrea", StreamOpen{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := stream.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		p.Abort()
		if st.EnvRows != st.WindowRounds+2*st.PadRounds || st.EnvRows*width > maxStreamDetRows {
			t.Fatalf("d=%d default open: Stats.EnvRows %d for window %d, pad %d (cap %d rows)",
				d, st.EnvRows, st.WindowRounds, st.PadRounds, maxStreamDetRows/width)
		}
	}
}
