package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// chunkStat is one measured chunk of a workload: a fixed number of ops over
// fixed inputs. The caller strings chunks into epochs of about a second and
// reports each end-to-end metric as the better quartile over epochs.
type chunkStat struct {
	// ops is what wallNs and cpuNs cover; attempted also counts ops made
	// outside that interval (the individually-timed pass of lib_lowhw).
	ops, attempted, failed int64
	wallNs                 int64
	cpuNs                  int64
	// lat holds the chunk's per-op latencies in ns; the workload reuses the
	// backing array on its next chunk.
	lat []int64
}

// A workload owns its inputs, its oracle and its driver. prepare is untimed
// (input sampling and reference computation are the benchmark's own cost);
// setup is what a user of the program pays before the first op and is timed
// by the caller; chunk runs one fixed batch of ops against what setup built.
type workload interface {
	prepare(o *options) error
	setup() error
	teardown() error
	chunk(traced bool) (chunkStat, error)
	// shards returns the span recorders chunk(true) filled.
	shards() []*recorder
	// layers adds the workload's own per-layer metrics (the ones only its
	// driver can see) to m.
	layers(m map[string]float64) error
	// probeInput is what the replay probes run on: the environment's
	// operating point, whole-shot syndromes and the decoder under test.
	probeInput() (d int, p float64, syn []Syndrome, decoderName string)
}

// options is what a run's pieces share: the seed, the -quick switch that
// shrinks every size, and the run's clock.
type options struct {
	seed   uint64
	quick  bool
	origin time.Time // zero of the run's nanosecond clock and of every span
	// latBuf pools an epoch's latency samples; one buffer serves every epoch
	// so the harness does not feed the garbage collector it is measuring.
	latBuf []int64
}

func (o *options) size(full, quick int) int {
	if o.quick {
		return quick
	}
	return full
}

// sinceNs is a monotonic nanosecond clock relative to the run's origin.
func (o *options) sinceNs() int64 { return time.Since(o.origin).Nanoseconds() }

func newWorkload(name string) (workload, error) {
	switch name {
	case "lib_lowhw":
		return &libWorkload{d: 7, p: 1e-3, n: 20000, minHW: 1, maxHW: 10, decoderName: "astrea", layer: "astrea.decode", bulkPasses: 4}, nil
	case "lib_highhw":
		return &libWorkload{d: 7, p: 3e-3, n: 5000, minHW: 11, maxHW: 24, decoderName: "mwpm", layer: "mwpm.decode"}, nil
	case "svc_saturate":
		return &svcWorkload{}, nil
	case "stream_d5":
		return &streamWorkload{}, nil
	case "svc_stream_d5":
		return &svcStreamWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"lib_lowhw", "lib_highhw", "svc_saturate", "stream_d5", "svc_stream_d5"}

// ---- lib_lowhw, lib_highhw: one goroutine calling Decode in a loop ----

type libWorkload struct {
	d, n, minHW, maxHW int
	p                  float64
	decoderName, layer string
	// bulkPasses untimed-per-op passes give ops_per_s and cpu_us_per_op when a
	// decode is so short that two clock reads would be a third of it; 0 means
	// the individually-timed pass is the whole chunk.
	bulkPasses int

	o    *options
	syn  []Syndrome
	want []uint64
	dec  Decoder
	lat  []int64
	rec  *recorder
}

func (w *libWorkload) prepare(o *options) error {
	w.o = o
	w.n = o.size(w.n, w.n/10)
	w.bulkPasses = o.size(w.bulkPasses, min(w.bulkPasses, 2))
	env, err := buildEnv(w.d, w.p)
	if err != nil {
		return err
	}
	if w.syn, err = sampleSyndromes(env, o.seed, w.n, w.minHW, w.maxHW); err != nil {
		return err
	}
	ref, err := newDecoder(env, "mwpm-dense")
	if err != nil {
		return err
	}
	w.want = make([]uint64, w.n)
	for i, s := range w.syn {
		w.want[i] = ref.Decode(s).ObsPrediction
	}
	w.lat = make([]int64, w.n)
	w.rec = newRecorder(o.origin)
	return nil
}

func (w *libWorkload) setup() error {
	env, err := buildEnv(w.d, w.p)
	if err != nil {
		return err
	}
	w.dec, err = newDecoder(env, w.decoderName)
	return err
}

func (w *libWorkload) teardown() error { return nil }

func (w *libWorkload) chunk(traced bool) (chunkStat, error) {
	var st chunkStat
	var rec *recorder
	if traced {
		rec = w.rec
	}
	c0, t0 := cpuNs(), w.o.sinceNs()
	for pass := 0; pass < w.bulkPasses; pass++ {
		for i, s := range w.syn {
			if r := w.dec.Decode(s); r.ObsPrediction != w.want[i] || r.Skipped {
				st.failed++
			}
		}
	}
	if w.bulkPasses > 0 {
		st.wallNs, st.cpuNs = w.o.sinceNs()-t0, cpuNs()-c0
		st.ops = int64(w.bulkPasses * w.n)
	}
	for i, s := range w.syn {
		a := w.o.sinceNs()
		r := w.dec.Decode(s)
		b := w.o.sinceNs()
		w.lat[i] = b - a
		ok := validMatching(s, r)
		if r.ObsPrediction != w.want[i] || r.Skipped || !ok {
			st.failed++
		}
		if rec != nil {
			c := w.o.sinceNs()
			op := rec.add("bench.op", a, c, -1, int64(i))
			rec.add(w.layer, a, b, op, int64(i))
			rec.add("decoder.validate", b, c, op, int64(i))
		}
	}
	if w.bulkPasses == 0 {
		st.wallNs, st.cpuNs = w.o.sinceNs()-t0, cpuNs()-c0
		st.ops = int64(w.n)
	}
	st.attempted = int64((w.bulkPasses + 1) * w.n)
	st.lat = w.lat
	return st, nil
}

func (w *libWorkload) shards() []*recorder               { return []*recorder{w.rec} }
func (w *libWorkload) layers(m map[string]float64) error { return nil }
func (w *libWorkload) probeInput() (int, float64, []Syndrome, string) {
	return w.d, w.p, w.syn, w.decoderName
}

// ---- svc_saturate: whole-syndrome requests through the daemon ----

const (
	svcConns    = 2
	svcDepth    = 8
	svcDeadline = 1_000_000_000 // ns; see README: short budgets answer with the degrade fallback
)

type svcWorkload struct {
	o        *options
	n, reqs  int
	syn      []Syndrome
	want     []uint64
	svc      *Service
	conns    []*svcConn
	lat      []int64 // the chunk's RTTs, both connections
	sojourn  []int64 // server-reported, traced chunks only
	outside  []int64 // RTT − sojourn, traced chunks only
	rttOver  int64   // RTTs over 1 ms, all chunks
	rttTotal int64
	before   ServiceCounters
	base     int // first syndrome of the next chunk; chunks walk the whole set
}

// svcConn is one connection's driver state, reused across chunks.
type svcConn struct {
	c                *Client
	sendAt, sendEnd  []int64
	lat              []int64
	sojourn, outside []int64
	failed, rttOver  int64
	rec              *recorder
	err              error
}

func (w *svcWorkload) prepare(o *options) error {
	w.o = o
	w.n = o.size(20000, 2000)
	w.reqs = o.size(4000, 2000)
	env, err := buildEnv(7, 1e-3)
	if err != nil {
		return err
	}
	if w.syn, err = sampleSyndromes(env, o.seed, w.n, 0, 1<<30); err != nil {
		return err
	}
	ref, err := newDecoder(env, "astrea")
	if err != nil {
		return err
	}
	w.want = make([]uint64, w.n)
	for i, s := range w.syn {
		w.want[i] = ref.Decode(s).ObsPrediction
	}
	per := w.reqs / svcConns
	w.conns = make([]*svcConn, svcConns)
	for i := range w.conns {
		w.conns[i] = &svcConn{
			sendAt: make([]int64, per), sendEnd: make([]int64, per), lat: make([]int64, 0, per),
			rec: newRecorder(o.origin),
		}
	}
	return nil
}

func (w *svcWorkload) setup() error {
	env, err := buildEnv(7, 1e-3)
	if err != nil {
		return err
	}
	if w.svc, err = startService(env, "astrea"); err != nil {
		return err
	}
	for _, cn := range w.conns {
		if cn.c, err = w.svc.dial(); err != nil {
			return err
		}
	}
	w.before = w.svc.counters()
	return nil
}

func (w *svcWorkload) teardown() error {
	var errs []error
	for _, cn := range w.conns {
		if cn.c != nil {
			errs = append(errs, cn.c.Close())
			cn.c = nil
		}
	}
	if w.svc != nil {
		errs = append(errs, w.svc.close())
		// Every accepted request must have been answered once the daemon has drained.
		if n := w.svc.counters(); n.Offered != n.Accepted+n.Rejected || n.Accepted != n.Completed {
			errs = append(errs, fmt.Errorf("daemon accounting broken after drain: offered %d accepted %d rejected %d completed %d",
				n.Offered, n.Accepted, n.Rejected, n.Completed))
		}
		w.svc = nil
	}
	return errors.Join(errs...)
}

func (w *svcWorkload) chunk(traced bool) (chunkStat, error) {
	var st chunkStat
	per := w.reqs / svcConns
	c0, t0 := cpuNs(), w.o.sinceNs()
	var wg sync.WaitGroup
	for i, cn := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn.run(w, w.base+i*per, per, traced)
		}()
	}
	wg.Wait()
	w.base = (w.base + w.reqs) % w.n
	st.wallNs, st.cpuNs = w.o.sinceNs()-t0, cpuNs()-c0
	w.lat = w.lat[:0]
	for _, cn := range w.conns {
		if cn.err != nil {
			return st, cn.err
		}
		st.failed += cn.failed
		w.lat = append(w.lat, cn.lat...)
		w.rttOver += cn.rttOver
		if traced {
			w.sojourn = append(w.sojourn, cn.sojourn...)
			w.outside = append(w.outside, cn.outside...)
		}
	}
	w.rttTotal += int64(len(w.lat))
	st.ops, st.attempted = int64(w.reqs), int64(w.reqs)
	st.lat = w.lat
	return st, nil
}

// run drives one connection closed-loop: send until svcDepth requests are in
// flight, then receive one and send one, until total requests are answered.
func (cn *svcConn) run(w *svcWorkload, offset, total int, traced bool) {
	var rec *recorder
	if traced {
		rec = cn.rec
	}
	cn.lat, cn.sojourn, cn.outside = cn.lat[:0], cn.sojourn[:0], cn.outside[:0]
	cn.failed, cn.rttOver, cn.err = 0, 0, nil
	sent, got := 0, 0
	for got < total {
		for sent < total && sent-got < svcDepth {
			cn.sendAt[sent] = w.o.sinceNs()
			if err := cn.c.Send(uint64(sent), svcDeadline, w.syn[(offset+sent)%w.n]); err != nil {
				cn.err = fmt.Errorf("send %d: %w", sent, err)
				return
			}
			if rec != nil {
				cn.sendEnd[sent] = w.o.sinceNs()
			}
			sent++
		}
		recvAt := rec.now()
		resp, err := cn.c.Recv()
		if err != nil {
			cn.err = fmt.Errorf("recv after %d responses: %w", got, err)
			return
		}
		now := w.o.sinceNs()
		if resp.Seq >= uint64(sent) {
			cn.err = fmt.Errorf("response for unsent seq %d", resp.Seq)
			return
		}
		got++
		rtt := now - cn.sendAt[resp.Seq]
		cn.lat = append(cn.lat, rtt)
		if rtt > 1_000_000 {
			cn.rttOver++
		}
		if resp.Rejected || resp.Err != "" || resp.Degraded || resp.ObsMask != w.want[(offset+int(resp.Seq))%w.n] {
			cn.failed++
		}
		if rec != nil {
			cn.sojourn = append(cn.sojourn, int64(resp.SojournNs))
			cn.outside = append(cn.outside, rtt-int64(resp.SojournNs))
			op := int64(offset) + int64(resp.Seq)
			root := rec.add("svc.request", cn.sendAt[resp.Seq], now, -1, op)
			rec.add("client.send", cn.sendAt[resp.Seq], cn.sendEnd[resp.Seq], root, op)
			rec.add("client.recv", recvAt, now, root, op)
		}
	}
}

func (w *svcWorkload) shards() []*recorder {
	var out []*recorder
	for _, cn := range w.conns {
		out = append(out, cn.rec)
	}
	return out
}

func (w *svcWorkload) layers(m map[string]float64) error {
	now := w.svc.counters()
	reqs := float64(now.Offered - w.before.Offered)
	m["server.sojourn_p50_us"] = quantileNs(w.sojourn, 0.50) / 1e3
	m["server.sojourn_p99_us"] = quantileNs(w.sojourn, 0.99) / 1e3
	m["svc.outside_server_p50_us"] = quantileNs(w.outside, 0.50) / 1e3
	m["server.mean_batch"] = float64(now.Completed-w.before.Completed) / float64(max(now.Batches-w.before.Batches, 1))
	m["server.rejected"] = float64(now.Rejected - w.before.Rejected)
	m["server.degraded"] = float64(now.Degraded - w.before.Degraded)
	m["server.bytes_in_per_req"] = float64(now.BytesIn-w.before.BytesIn) / max(reqs, 1)
	m["svc.rtt_over_1ms_share"] = float64(w.rttOver) / float64(max(w.rttTotal, 1))
	p50, err := w.pingPong()
	m["svc.pingpong_rtt_p50_us"] = p50
	return err
}

// pingPong is a one-connection, depth-1 probe of the same daemon: the
// unloaded round trip, for comparison with the saturated one. Informational —
// on a shared two-core box it moves ±20 % run to run, which is why it is not
// a workload.
func (w *svcWorkload) pingPong() (float64, error) {
	c, err := w.svc.dial()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	n := w.o.size(4000, 200)
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		a := w.o.sinceNs()
		resp, err := c.Decode(uint64(i), svcDeadline, w.syn[i%w.n])
		if err != nil {
			return 0, fmt.Errorf("ping-pong probe: %w", err)
		}
		if resp.Rejected || resp.Err != "" {
			return 0, fmt.Errorf("ping-pong probe: request %d refused", i)
		}
		lat = append(lat, w.o.sinceNs()-a)
	}
	return quantileNs(lat, 0.50) / 1e3, nil
}

func (w *svcWorkload) probeInput() (int, float64, []Syndrome, string) {
	return 7, 1e-3, w.syn, "astrea"
}

// ---- stream_d5: syndrome rounds through the in-process pipeline ----

// streamInput is the round stream both stream workloads replay: whole shots
// at d=5 split into rows and replayed as one stream per chunk.
type streamInput struct {
	shots []Syndrome
	rows  []Syndrome
}

func (in *streamInput) sample(o *options, shots int) error {
	env, err := buildEnv(5, 1e-3)
	if err != nil {
		return err
	}
	if in.shots, err = sampleSyndromes(env, o.seed, shots, 0, 1<<30); err != nil {
		return err
	}
	in.rows = splitRows(env, in.shots)
	return nil
}

// warmRows is the prefix set-up pushes to make the pipeline build its lazy
// window environments: a tenth of a pass, so the steady work in it is ~1 % of
// the build it provokes.
func (in *streamInput) warmRows() []Syndrome { return in.rows[:len(in.rows)/10] }

// streamTotals is what a stream's commits add up to; two runs over the same
// rows at the same window parameters must agree on all of it.
type streamTotals struct {
	rows, windows, forced, fallback, empty, misses uint64
	obs                                            uint64
}

// take checks that a commit continues the partition of the stream (in order,
// no gap, no duplicate) and folds it in.
func (t *streamTotals) take(seq, firstRow uint64, rowCount int, obs uint64) error {
	if seq != t.windows || firstRow != t.rows || rowCount <= 0 {
		return fmt.Errorf("commit seq %d rows %d+%d breaks the partition (want seq %d from row %d)", seq, firstRow, rowCount, t.windows, t.rows)
	}
	t.windows++
	t.rows += uint64(rowCount)
	t.obs ^= obs
	return nil
}

type streamWorkload struct {
	o       *options
	in      streamInput
	env     *Env
	ref     *streamTotals
	coldNs  int64 // the warm-up prefix on cold window environments
	lat     []int64
	misses  uint64
	commits uint64
	push    *recorder
	drain   *recorder
}

func (w *streamWorkload) prepare(o *options) error {
	w.o = o
	w.push, w.drain = newRecorder(o.origin), newRecorder(o.origin)
	return w.in.sample(o, o.size(20000, 2000))
}

func (w *streamWorkload) setup() error {
	flushSharedEnvs()
	env, err := buildEnv(5, 1e-3)
	if err != nil {
		return err
	}
	w.env = env
	t0 := w.o.sinceNs()
	_, err = runPipeline(w.o, w.newPipeline, w.in.warmRows(), nil, nil, nil)
	w.coldNs = w.o.sinceNs() - t0
	return err
}

func (w *streamWorkload) teardown() error { return nil }

func (w *streamWorkload) newPipeline() (*Pipeline, error) { return newPipeline(w.env, "astrea") }

// runPipeline pushes rows through a fresh pipeline from one
// goroutine while another drains the commits, then closes it and waits for
// both. lat, when non-nil, collects each commit's cut→commit sojourn.
func runPipeline(o *options, mk func() (*Pipeline, error), rows []Syndrome, lat *[]int64, push, drain *recorder) (streamTotals, error) {
	var tot streamTotals
	t0 := o.sinceNs()
	pl, err := mk()
	if err != nil {
		return tot, err
	}
	// One root per goroutine: the pusher's self time is its loop outside
	// PushRow, the drainer's is commit handling outside the channel wait.
	pushRoot := push.add("stream.session.push", t0, t0, -1, t0)
	drainRoot := drain.add("stream.session.drain", t0, t0, -1, t0)
	var drainErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		wait := drain.now()
		for c := range pl.Commits() {
			drain.add("stream.commit_wait", wait, drain.now(), drainRoot, t0)
			if err := tot.take(c.WindowSeq, c.FirstRow, c.RowCount, c.ObsMask); err != nil && drainErr == nil {
				drainErr = err
			}
			if lat != nil {
				*lat = append(*lat, int64(c.SojournNs))
			}
			tot.forced += b2u(c.Forced)
			tot.fallback += b2u(c.Fallback)
			tot.empty += b2u(c.Empty)
			tot.misses += b2u(c.DeadlineMiss)
			wait = drain.now()
		}
	}()
	var pushErr error
	for i, row := range rows {
		// One PushRow in eight is timed: two clock reads around every
		// ~300 ns call would be a fifth of the work being traced.
		if push != nil && i&7 == 0 {
			a := push.now()
			pushErr = pl.PushRow(row)
			push.add("stream.pushrow", a, push.now(), pushRoot, t0)
		} else {
			pushErr = pl.PushRow(row)
		}
		if pushErr != nil {
			break
		}
	}
	if pushErr != nil {
		pl.Abort()
	} else {
		pushErr = pl.Close()
	}
	<-done
	push.setEnd(pushRoot, o.sinceNs())
	drain.setEnd(drainRoot, o.sinceNs())
	return tot, errors.Join(pushErr, drainErr, pl.Err())
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (w *streamWorkload) chunk(traced bool) (chunkStat, error) {
	var st chunkStat
	var push, drain *recorder
	if traced {
		push, drain = w.push, w.drain
	}
	w.lat = w.lat[:0]
	c0, t0 := cpuNs(), w.o.sinceNs()
	tot, err := runPipeline(w.o, w.newPipeline, w.in.rows, &w.lat, push, drain)
	st.wallNs, st.cpuNs = w.o.sinceNs()-t0, cpuNs()-c0
	if err != nil {
		return st, err
	}
	st.ops, st.attempted = int64(len(w.in.rows)), int64(len(w.in.rows))
	if w.ref == nil {
		// The first (untimed, warm-up) chunk is the reference pass.
		w.ref = &tot
	}
	if tot.rows != uint64(len(w.in.rows)) || tot.obs != w.ref.obs || tot.windows != w.ref.windows || tot.forced != w.ref.forced {
		st.failed = st.attempted
	}
	w.misses += tot.misses
	w.commits += tot.windows
	st.lat = w.lat
	return st, nil
}

func (w *streamWorkload) shards() []*recorder { return []*recorder{w.push, w.drain} }

func (w *streamWorkload) layers(m map[string]float64) error {
	streamShapeLayers(m, w.ref, w.misses, w.commits)
	t0 := w.o.sinceNs()
	if _, err := runPipeline(w.o, w.newPipeline, w.in.warmRows(), nil, nil, nil); err != nil {
		return err
	}
	m["stream.window_env_warm_ms"] = float64(w.coldNs-(w.o.sinceNs()-t0)) / 1e6
	_, err := streamVsWholeShot(m, w.o, w.env, &w.in)
	return err
}

// streamShapeLayers reports how the planner cut the stream. All but the
// budget-miss share are counts over fixed rows and repeat exactly.
func streamShapeLayers(m map[string]float64, ref *streamTotals, misses, commits uint64) {
	win := float64(max(ref.windows, 1))
	m["stream.rows_per_window"] = float64(ref.rows) / win
	m["stream.empty_window_share"] = float64(ref.empty) / win
	m["stream.forced_cut_share"] = float64(ref.forced) / win
	m["stream.fallback_share"] = float64(ref.fallback) / win
	m["stream.budget_miss_share"] = float64(misses) / float64(max(commits, 1))
}

// streamVsWholeShot says whether decoding or plan/embed/fuse dominates the
// stream: the same shots decoded whole by Astrea, per round, against one
// pass of the pipeline.
func streamVsWholeShot(m map[string]float64, o *options, env *Env, in *streamInput) (inprocNsPerRound float64, err error) {
	dec, err := newDecoder(env, "astrea")
	if err != nil {
		return 0, err
	}
	t0 := o.sinceNs()
	for _, s := range in.shots {
		dec.Decode(s)
	}
	whole := float64(o.sinceNs()-t0) / float64(len(in.rows))
	t0 = o.sinceNs()
	mk := func() (*Pipeline, error) { return newPipeline(env, "astrea") }
	if _, err := runPipeline(o, mk, in.rows, nil, nil, nil); err != nil {
		return 0, err
	}
	streamed := float64(o.sinceNs()-t0) / float64(len(in.rows))
	m["stream.wholeshot_ns_per_round"] = whole
	m["stream.overhead_ratio"] = streamed / whole
	return streamed, nil
}

func (w *streamWorkload) probeInput() (int, float64, []Syndrome, string) {
	return 5, 1e-3, w.in.shots, "astrea"
}

// ---- svc_stream_d5: the same rounds through the daemon's stream session ----

const (
	wireBatch       = 8    // rounds per SendRounds
	wireUncommitted = 1024 // rounds sent but not yet committed, at most
)

type svcStreamWorkload struct {
	o       *options
	in      streamInput
	env     *Env
	svc     *Service
	ref     *streamTotals
	coldNs  int64 // the warm-up prefix on cold window environments
	ack     StreamAck
	sendAt  []atomic.Int64
	lat     []int64
	sojourn []int64
	outside []int64
	misses  uint64
	commits uint64
	wallNs  int64 // of every measured chunk, for the wire-vs-in-process ratio
	rounds  int64
	send    *recorder
	recv    *recorder
}

func (w *svcStreamWorkload) prepare(o *options) error {
	w.o = o
	w.send, w.recv = newRecorder(o.origin), newRecorder(o.origin)
	if err := w.in.sample(o, o.size(10000, 2000)); err != nil {
		return err
	}
	w.sendAt = make([]atomic.Int64, len(w.in.rows))
	return nil
}

func (w *svcStreamWorkload) setup() error {
	flushSharedEnvs()
	env, err := buildEnv(5, 1e-3)
	if err != nil {
		return err
	}
	w.env = env
	if w.svc, err = startService(env, "astrea"); err != nil {
		return err
	}
	t0 := w.o.sinceNs()
	_, err = w.session(w.in.warmRows(), false)
	w.coldNs = w.o.sinceNs() - t0
	return err
}

func (w *svcStreamWorkload) teardown() error {
	if w.svc == nil {
		return nil
	}
	err := w.svc.close()
	w.svc = nil
	return err
}

// session streams rows over one connection: a sender goroutine
// ships batches of wireBatch rounds, never more than wireUncommitted ahead of
// the receiver's commit watermark, and this goroutine receives commits until
// the server's closing summary.
func (w *svcStreamWorkload) session(rows []Syndrome, traced bool) (streamTotals, error) {
	var tot streamTotals
	var send, recv *recorder
	if traced {
		send, recv = w.send, w.recv
	}
	c, err := w.svc.dialStream()
	if err != nil {
		return tot, err
	}
	defer c.Close()
	st, err := openStream(c)
	if err != nil {
		return tot, err
	}
	w.ack = st.Params()

	var committed atomic.Int64
	wake := make(chan struct{}, 1)
	abort := make(chan struct{})
	sendErr := make(chan error, 1)
	t0 := w.o.sinceNs()
	sendRoot := send.add("svc_stream.session.send", t0, t0, -1, t0)
	recvRoot := recv.add("svc_stream.session.recv", t0, t0, -1, t0)
	go func() {
		for sent := 0; sent < len(rows); sent += wireBatch {
			batch := rows[sent:min(sent+wireBatch, len(rows))]
			for int64(sent+len(batch))-committed.Load() > wireUncommitted {
				select {
				case <-wake:
				case <-abort:
					sendErr <- nil
					return
				}
			}
			now := w.o.sinceNs()
			for k := range batch {
				w.sendAt[sent+k].Store(now)
			}
			if err := st.SendRounds(batch); err != nil {
				sendErr <- fmt.Errorf("send at round %d: %w", sent, err)
				return
			}
			send.add("client.send_rounds", now, send.now(), sendRoot, t0)
		}
		sendErr <- st.CloseSend()
	}()

	fail := func(err error) (streamTotals, error) {
		close(abort)
		// Closing the connection unblocks a sender stuck in SendRounds.
		return tot, errors.Join(err, c.Close(), <-sendErr)
	}
	for {
		recvAt := recv.now()
		ev, err := st.Recv()
		if err != nil {
			return fail(fmt.Errorf("stream died after %d commits: %w", tot.windows, err))
		}
		now := w.o.sinceNs()
		recv.add("client.recv", recvAt, now, recvRoot, t0)
		if ev.Closed {
			if s := ev.Summary; s.TotalRows != tot.rows || s.Windows != tot.windows || s.ObsMask != tot.obs || s.ForcedCuts != tot.forced {
				return fail(fmt.Errorf("closing summary %+v disagrees with the commits received (%+v)", s, tot))
			}
			break
		}
		cm := ev.Commit
		if err := tot.take(cm.WindowSeq, cm.FirstRow, int(cm.RowCount), cm.ObsMask); err != nil {
			return fail(err)
		}
		if tot.rows > uint64(len(rows)) {
			return fail(fmt.Errorf("commit covers row %d beyond the %d sent", tot.rows-1, len(rows)))
		}
		tot.forced += b2u(cm.Flags&wireFlagForcedSeam != 0)
		tot.fallback += b2u(cm.Flags&wireFlagDegraded != 0)
		tot.misses += b2u(cm.Flags&wireFlagDeadlineMiss != 0)
		l := now - w.sendAt[tot.rows-1].Load()
		w.lat = append(w.lat, l)
		if traced {
			w.sojourn = append(w.sojourn, int64(cm.SojournNs))
			w.outside = append(w.outside, l-int64(cm.SojournNs))
		}
		committed.Store(int64(tot.rows))
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	err = <-sendErr
	send.setEnd(sendRoot, w.o.sinceNs())
	recv.setEnd(recvRoot, w.o.sinceNs())
	return tot, err
}

func (w *svcStreamWorkload) chunk(traced bool) (chunkStat, error) {
	var st chunkStat
	w.lat = w.lat[:0]
	c0, t0 := cpuNs(), w.o.sinceNs()
	tot, err := w.session(w.in.rows, traced)
	st.wallNs, st.cpuNs = w.o.sinceNs()-t0, cpuNs()-c0
	if err != nil {
		return st, err
	}
	st.ops, st.attempted = int64(len(w.in.rows)), int64(len(w.in.rows))
	w.wallNs += st.wallNs
	w.rounds += st.ops
	if w.ref == nil {
		// Reference pass: the same rows through a local pipeline at the
		// parameters the server resolved. The wire may add transport, never
		// approximation.
		ref, err := w.localReference()
		if err != nil {
			return st, err
		}
		w.ref = &ref
	}
	if tot.rows != uint64(len(w.in.rows)) || tot.obs != w.ref.obs || tot.windows != w.ref.windows || tot.forced != w.ref.forced {
		st.failed = st.attempted
	}
	w.misses += tot.misses
	w.commits += tot.windows
	st.lat = w.lat
	return st, nil
}

func (w *svcStreamWorkload) localReference() (streamTotals, error) {
	mk := func() (*Pipeline, error) { return newPipelineAt(w.env, "astrea", w.ack) }
	return runPipeline(w.o, mk, w.in.rows, nil, nil, nil)
}

func (w *svcStreamWorkload) shards() []*recorder { return []*recorder{w.send, w.recv} }

func (w *svcStreamWorkload) layers(m map[string]float64) error {
	streamShapeLayers(m, w.ref, w.misses, w.commits)
	t0 := w.o.sinceNs()
	lat := w.lat
	if _, err := w.session(w.in.warmRows(), false); err != nil {
		return err
	}
	w.lat = lat
	m["stream.window_env_warm_ms"] = float64(w.coldNs-(w.o.sinceNs()-t0)) / 1e6
	m["server.stream_sojourn_p50_us"] = quantileNs(w.sojourn, 0.50) / 1e3
	m["svc_stream.outside_server_p50_us"] = quantileNs(w.outside, 0.50) / 1e3
	inproc, err := streamVsWholeShot(m, w.o, w.env, &w.in)
	m["svc_stream.wire_vs_inproc_ratio"] = float64(w.wallNs) / float64(max(w.rounds, 1)) / inproc
	return err
}

func (w *svcStreamWorkload) probeInput() (int, float64, []Syndrome, string) {
	return 5, 1e-3, w.in.shots, "astrea"
}
