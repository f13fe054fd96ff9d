package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/astrea"
	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/experiments"
	"astrea/internal/hwmodel"
	"astrea/internal/montecarlo"
)

// Config parameterises a decode daemon.
type Config struct {
	// Distances lists the code distances the daemon serves; one immutable
	// environment (circuit, DEM, decoding graph, GWT) is built per distance
	// at startup and shared read-only by every worker. Default {3, 5, 7}.
	Distances []int
	// P is the physical error rate the Global Weight Tables are programmed
	// for. Default 1e-3.
	P float64
	// Decoder selects the matcher: "astrea" (default), "astrea-g", "mwpm",
	// "uf" (weighted Union-Find) or "uf-unweighted" (the AFS baseline).
	Decoder string
	// QueueDepth bounds the request queue; a request arriving with the
	// queue full is rejected with a retry-after hint instead of queued
	// (explicit backpressure). Default 1024.
	QueueDepth int
	// BatchSize is the largest batch one worker drains from the queue in a
	// single wake-up. Default 16.
	BatchSize int
	// Workers is the number of queue workers. They decode only what takes
	// the queue: requests of Hamming weight above astrea.MaxHW and every
	// request on a pool without DecodeObs (mwpm, uf, wrapped decoders).
	// HW ≤ 10 requests on an Astrea or Astrea-G pool are decoded on their
	// connection's reader, so that decode concurrency follows the number
	// of connections, not Workers. Default GOMAXPROCS.
	Workers int
	// DefaultDeadlineNs is the per-request real-time budget applied when a
	// request carries none; default is the paper's 1 µs window.
	DefaultDeadlineNs uint64
	// RetryAfterNs is the backpressure hint returned with rejections;
	// default is QueueDepth × the default deadline (a full queue drained at
	// one decode per budget window).
	RetryAfterNs uint64
	// MaxFrameBytes caps accepted frame sizes. Default DefaultMaxFrame.
	MaxFrameBytes int

	// HandshakeTimeout bounds the Hello/HelloAck exchange on a new
	// connection; a peer that connects and never sends a well-formed Hello
	// is dropped when it expires. Default 10s; negative disables.
	HandshakeTimeout time.Duration
	// IdleTimeout reaps connections that complete no frame for this long:
	// a per-frame read deadline catches idle and slow-loris peers, and a
	// background reaper catches connections wedged outside a read. Default
	// 5m; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response-frame write so a peer that stops
	// reading cannot wedge a worker. A failed or timed-out write closes
	// the connection — the stream framing is unrecoverable mid-frame.
	// Default 30s; negative disables.
	WriteTimeout time.Duration
	// MaxConns caps concurrent client connections; excess connections are
	// refused with a StatusOverloaded hello-ack. Default 4096; negative
	// disables the cap.
	MaxConns int

	// StreamResumeTTL bounds how long a resumable streaming session whose
	// connection died stays parked in the resume cache awaiting a
	// StreamResume before it is aborted. Default 2m; negative disables
	// session resume entirely (FeatureStreamResume is not advertised).
	StreamResumeTTL time.Duration
	// StreamResumeMaxSessions caps concurrently parked sessions; beyond
	// it the oldest parked session is evicted (aborted). Default 64;
	// negative removes the cap.
	StreamResumeMaxSessions int
	// StreamResumeMaxBytes caps the estimated memory retained by parked
	// sessions (planner buffers plus redelivery rings), enforced by
	// oldest-first eviction. Default 16 MiB; negative removes the cap.
	StreamResumeMaxBytes int64

	// Envs supplies pre-built environments keyed by distance (tests and
	// embedders share one env between server and client to halve setup
	// cost); missing distances are built normally.
	Envs map[int]*montecarlo.Env

	// Artifacts supplies compiled operating points keyed by distance: a
	// pool for a distance present here adopts the artifact's model, skips
	// DEM extraction, rebuilds the weight table from the model and
	// refuses it unless it digests to the artifact's fingerprint, which
	// the pool then advertises. An artifact whose distance or physical error
	// rate disagrees with the configuration is rejected at startup. Envs
	// takes precedence over Artifacts for the same distance.
	Artifacts map[int]*artifact.Artifact

	// factory overrides the decoder constructor (tests inject slow or
	// instrumented decoders); nil uses Decoder.
	factory montecarlo.Factory
}

func (c *Config) applyDefaults() {
	if len(c.Distances) == 0 {
		c.Distances = []int{3, 5, 7}
	}
	if c.P <= 0 {
		c.P = 1e-3
	}
	if c.Decoder == "" {
		c.Decoder = "astrea"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadlineNs == 0 {
		c.DefaultDeadlineNs = uint64(hwmodel.RealTimeBudgetNs)
	}
	if c.RetryAfterNs == 0 {
		c.RetryAfterNs = uint64(c.QueueDepth) * c.DefaultDeadlineNs
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = DefaultMaxFrame
	}
	// Zero means "use the default"; negative means "explicitly disabled"
	// and is normalised to the disabled sentinel (0 for durations, 0 for
	// MaxConns).
	c.HandshakeTimeout = defaultDuration(c.HandshakeTimeout, 10*time.Second)
	c.IdleTimeout = defaultDuration(c.IdleTimeout, 5*time.Minute)
	c.WriteTimeout = defaultDuration(c.WriteTimeout, 30*time.Second)
	switch {
	case c.MaxConns == 0:
		c.MaxConns = 4096
	case c.MaxConns < 0:
		c.MaxConns = 0
	}
	c.StreamResumeTTL = defaultDuration(c.StreamResumeTTL, 2*time.Minute)
	switch {
	case c.StreamResumeMaxSessions == 0:
		c.StreamResumeMaxSessions = 64
	case c.StreamResumeMaxSessions < 0:
		c.StreamResumeMaxSessions = 0
	}
	switch {
	case c.StreamResumeMaxBytes == 0:
		c.StreamResumeMaxBytes = 16 << 20
	case c.StreamResumeMaxBytes < 0:
		c.StreamResumeMaxBytes = 0
	}
}

func defaultDuration(d, def time.Duration) time.Duration {
	switch {
	case d == 0:
		return def
	case d < 0:
		return 0
	}
	return d
}

// distPool is one generation of one served distance: the shared immutable
// tables plus a pool of per-worker decoder instances. Decoders are NOT
// concurrency-safe (see decoder.Decoder's contract), so each worker checks
// one out for the duration of a decode; instances declaring
// decoder.ConcurrencySafe could be shared, but pooling is uniformly correct
// either way. Artifact rotation replaces a distance's current pool with a
// new generation while the requests and streams holding the old one finish
// on it (see rotate.go).
type distPool struct {
	env   *montecarlo.Env
	riceK uint8
	// fp is the decoding-configuration digest advertised in handshakes and
	// results, so a client can tell which generation's tables answered.
	fp decodegraph.Fingerprint

	// dist, gen and p identify the generation for rotation accounting:
	// the served distance, the artifact's generation ordinal (0 for a pool
	// built at startup without one) and the physical error rate its tables
	// are programmed for.
	dist int
	gen  uint64
	p    float64
	// engine names the exact-matching engine behind the pool's decoders
	// (decoder.EngineOf of a constructed instance), surfaced on /stats to
	// attribute answers to an engine across rotations — two engines can
	// share one decoder name ("MWPM" dense vs sparse).
	engine string

	// refs counts the holders that keep a superseded generation alive: one
	// per in-flight request and one per open streaming session pinned to
	// the pool. A retiring pool with zero refs is retired (rotate.go); the
	// current generation never retires.
	refs     atomic.Int64
	retiring atomic.Bool
	// retired marks the generation fully drained and removed from the live
	// set; guarded by Server.rotateMu.
	retired bool

	decoders sync.Pool
	// inline records that the pool's decoders implement decoder.ObsDecoder
	// (Astrea, Astrea-G): their HW ≤ astrea.MaxHW requests are sub-µs and are
	// decoded on the connection's reader instead of travelling the queue.
	inline bool
}

func (p *distPool) get() decoder.Decoder  { return p.decoders.Get().(decoder.Decoder) }
func (p *distPool) put(d decoder.Decoder) { p.decoders.Put(d) }

// distSlot is one served distance's hot-swap indirection: cur is the
// generation new work lands on, swapped atomically by Rotate; live lists
// every not-yet-retired generation newest-first (live[0] == cur), guarded
// by Server.rotateMu. requests recycles request structs together with their
// syndrome buffers: every generation of a distance has the same detector
// count (Rotate refuses a width change), so a recycled syndrome always fits.
type distSlot struct {
	cur      atomic.Pointer[distPool]
	live     []*distPool
	requests sync.Pool
}

// decode runs one syndrome on a pooled instance, containing any panic: the
// request fails with an error instead of killing the goroutine, and the
// panicking instance is discarded rather than recycled into the pool (its
// scratch state is unknowable mid-panic). A result frame carries no
// matching, so an instance offering DecodeObs answers from it and the
// request path allocates no Pairs.
func (p *distPool) decode(s bitvec.Vec) (res decoder.Result, err error) {
	dec := p.get()
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("decoder panicked: %v", v)
			return
		}
		p.put(dec)
	}()
	if od, ok := dec.(decoder.ObsDecoder); ok {
		return od.DecodeObs(s), nil
	}
	return dec.Decode(s), nil
}

// request is one accepted decode travelling the queue. Requests and their
// syndromes are recycled through the distance slot's pool: serveConn takes
// one per decode frame, the worker returns it once the answer is queued.
type request struct {
	conn       *conn
	seq        uint64
	pool       *distPool
	syndrome   bitvec.Vec
	deadlineNs uint64
	arrival    time.Time
}

// conn is one client stream's server-side state. slot is the handshake
// distance's hot-swap indirection: every request resolves slot's current
// generation when it is read.
//
// The socket is paid for per batch, not per frame. Inbound frames come
// through br, so one read syscall delivers every frame the peer has
// pipelined; outbound frames are assembled whole in wbuf and leave in one
// Write per flush — decode results queue there until whoever decoded them
// flushes (a worker after its batch, or the connection's own reader before
// a read that could block), every other frame is flushed as it is appended.
type conn struct {
	net.Conn
	stats *stats
	slot  *distSlot
	// features is the negotiated feature-bit set (FeatureChecksum switches
	// both directions to CRC32C-trailed frames; FeatureProbe enables
	// Ping/Pong probe frames).
	features uint32

	// Read half, owned by the connection's serveConn goroutine. rbuf is the
	// reused frame body: a payload readFrame returns is valid only until the
	// next readFrame.
	br   *bufio.Reader
	rbuf []byte

	// Write half. wmu serialises frame appends and flushes against
	// concurrent workers and the stream pump, so per-connection frame order
	// is append order. wframes counts the frames in wbuf; werr is the sticky
	// failure that closed the connection.
	wmu     sync.Mutex
	wbuf    []byte
	wframes int
	werr    error
	// wTimeout bounds each flush (0 disables).
	wTimeout time.Duration
	// parked is set while a stream session's reader is in, or about to
	// enter, a socket read: the session's pump, which queues commits, then
	// flushes them itself. The reader sets it before its flush and the pump
	// checks it after its append, so whichever comes second writes.
	parked atomic.Bool

	// lastActive is the UnixNano of the last completed inbound frame; the
	// idle reaper closes connections whose lastActive is too old.
	lastActive atomic.Int64
}

func (c *conn) touch() { c.lastActive.Store(time.Now().UnixNano()) }

func (c *conn) checked() bool { return c.features&FeatureChecksum != 0 }

// readFrame reads one inbound frame honouring the negotiated framing. idle
// is the per-frame idle cutoff (0 disables): a peer that completes no frame
// within it — whether silent or trickling bytes slow-loris style — fails the
// read with a timeout. The deadline is armed only when the next frame is
// not already fully buffered, i.e. whenever the read can block.
func (c *conn) readFrame(maxFrame int, idle time.Duration) (t FrameType, payload []byte, err error) {
	if idle > 0 && !c.frameBuffered() {
		if err := c.Conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			// Cannot arm the idle cutoff: the conn is already dead, and
			// reading without it would reintroduce the slow-loris hole.
			return 0, nil, err
		}
	}
	t, payload, c.rbuf, err = readFrame(c.br, c.rbuf, maxFrame, c.checked())
	return t, payload, err
}

// frameBuffered reports whether the next frame can be read without touching
// the socket.
func (c *conn) frameBuffered() bool {
	hdr, err := c.br.Peek(min(4, c.br.Buffered())) // buffered bytes only: never reads
	return err == nil && len(hdr) == 4 &&
		int64(c.br.Buffered()-4) >= int64(binary.LittleEndian.Uint32(hdr))
}

// writeFrame appends one frame behind whatever is queued and flushes, so it
// can neither overtake nor strand a queued result. A failed or timed-out
// flush closes the connection: a partial frame corrupts the stream framing,
// so the only safe degradation is a disconnect the client can observe and
// retry.
func (c *conn) writeFrame(t FrameType, payload []byte) error {
	c.wmu.Lock()
	if c.werr == nil {
		c.wbuf = appendFrame(c.wbuf, t, payload, c.checked())
		c.wframes++
	}
	c.wmu.Unlock()
	// Whoever flushes first — this call or a worker in between — carries the
	// frame; a failure either way comes back as the sticky error.
	return c.flush()
}

// queueResult encodes a result frame in place behind whatever is queued and
// leaves it there: the worker that decoded it owes the connection a flush.
func (c *conn) queueResult(rf ResultFrame) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return // the connection is closed; the client re-dials and retries
	}
	start := len(c.wbuf)
	c.wbuf = endFrame(rf.AppendTo(beginFrame(c.wbuf, FrameResult)), start, c.checked())
	c.wframes++
}

// queueCommit encodes a stream commit in place behind whatever is queued
// and leaves it there, returning the connection's sticky failure instead
// when it is closed. carry is the commit's resolved seam in row words,
// appended little-endian after f's own bytes — so a fresh commit passes its
// words with a nil f.Carry and a retained one its serialised f.Carry alone,
// and the wire bytes are StreamCorrections.AppendTo's either way.
func (c *conn) queueCommit(f StreamCorrections, carry []uint64) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	start := len(c.wbuf)
	b := f.AppendTo(beginFrame(c.wbuf, FrameStreamCorrections))
	for _, w := range carry {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	c.wbuf = endFrame(b, start, c.checked())
	c.wframes++
	return nil
}

// flush writes every queued frame with one Write. A peer that stopped
// reading holds this call for up to the write timeout, and with it the
// results the calling worker has queued on other connections — the same
// worker would otherwise hold the rest of its batch undecoded behind that
// write — so workers flush connections in the order they first touched them.
func (c *conn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil || len(c.wbuf) == 0 {
		return c.werr
	}
	var err error
	if c.wTimeout > 0 {
		// A deadline that cannot be armed means the connection is already
		// dead — writing without the timeout would re-open the wedged-peer
		// hang the timeout exists to prevent.
		err = c.Conn.SetWriteDeadline(time.Now().Add(c.wTimeout))
	}
	if err == nil {
		//lint:allow lockorder wmu exists to serialise whole frames onto the conn; the write deadline above bounds a wedged peer
		_, err = c.Conn.Write(c.wbuf)
	}
	if err == nil {
		c.stats.flushes.Add(1)
		c.stats.framesOut.Add(int64(c.wframes))
	} else {
		c.werr = err
		//lint:allow errwrap best-effort teardown after a failed write; the write error is what the caller sees
		c.Conn.Close()
	}
	c.wbuf, c.wframes = resetFrameBuf(c.wbuf), 0
	return err
}

// resultFlushBound is how long a queued result may wait for the rest of its
// worker's batch before it is flushed anyway. A batch of sub-microsecond
// Astrea decodes finishes well inside it and leaves in one write; a batch of
// slow decodes (Blossom at 14 µs, Union-Find at 100 µs) flushes as it goes
// instead of holding the first answer for the whole batch.
const resultFlushBound = 20 * time.Microsecond

// flusher is one worker's record of the connections holding results it has
// queued and not yet flushed, in first-touched order, each with the
// decode-completion time of its oldest such result.
type flusher struct {
	pend []pendingFlush
}

type pendingFlush struct {
	c     *conn
	since time.Time
}

// queued notes that a result was queued on c at now (the clock reading the
// sojourn accounting already took) and flushes every connection whose
// oldest result has waited past the bound.
func (f *flusher) queued(c *conn, now time.Time) {
	seen := false
	keep := f.pend[:0]
	for _, p := range f.pend {
		seen = seen || p.c == c
		if now.Sub(p.since) > resultFlushBound {
			//lint:allow errwrap a failed flush closes the conn; the client observes the broken stream and retries elsewhere
			p.c.flush()
		} else {
			keep = append(keep, p)
		}
	}
	if !seen {
		keep = append(keep, pendingFlush{c: c, since: now})
	}
	f.pend = keep
}

// flushAll flushes every pending connection, oldest first.
func (f *flusher) flushAll() {
	for _, p := range f.pend {
		//lint:allow errwrap a failed flush closes the conn; the client observes the broken stream and retries elsewhere
		p.c.flush()
	}
	clear(f.pend)
	f.pend = f.pend[:0]
}

// Server is the decode daemon.
type Server struct {
	cfg   Config
	pools map[int]*distSlot
	queue chan *request
	stats *stats

	// rotateMu serialises Rotate calls and guards every slot's live list
	// and every pool's retired flag.
	rotateMu sync.Mutex
	// features is the advertised feature-bit set: supportedFeatures minus
	// anything the configuration disables (session resume).
	features uint32

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool

	// connWG tracks serveConn goroutines (the queue's only senders) and
	// workerWG the queue's receivers; Close waits for the former before
	// close(queue) so no send can race the close.
	connWG   sync.WaitGroup
	workerWG sync.WaitGroup

	// streamWG tracks per-session commit pumps, which outlive their
	// connection when a resumable session parks.
	streamWG sync.WaitGroup

	// resumeMu guards the resumable-session registry: sessions holds every
	// live resumable session by token, parked the disconnected subset (the
	// resume cache). Lock order is resumeMu before any streamSession.mu.
	resumeMu  sync.Mutex
	sessions  map[uint64]*streamSession
	parked    map[uint64]*streamSession
	resumeSeq atomic.Uint64

	// reaperStop ends the idle-connection and resume-cache reapers;
	// reaperWG waits for them.
	reaperStop chan struct{}
	reaperWG   sync.WaitGroup
}

// New builds a daemon: one environment and decoder pool per configured
// distance. The decoder choice is validated by constructing one instance
// per distance eagerly.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	factory := cfg.factory
	if factory == nil {
		var err error
		factory, err = FactoryFor(cfg.Decoder)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:        cfg,
		pools:      make(map[int]*distSlot, len(cfg.Distances)),
		queue:      make(chan *request, cfg.QueueDepth),
		stats:      newStats(cfg, float64(cfg.DefaultDeadlineNs)),
		features:   supportedFeatures,
		conns:      make(map[*conn]struct{}),
		sessions:   make(map[uint64]*streamSession),
		parked:     make(map[uint64]*streamSession),
		reaperStop: make(chan struct{}),
	}
	if !s.resumeEnabled() {
		s.features &^= FeatureStreamResume
	}
	s.resumeSeq.Store(uint64(time.Now().UnixNano()))
	for _, d := range cfg.Distances {
		if _, dup := s.pools[d]; dup {
			return nil, fmt.Errorf("server: distance %d listed twice", d)
		}
		var gen uint64
		env := cfg.Envs[d]
		if env == nil {
			if a := cfg.Artifacts[d]; a != nil {
				if a.Meta.Distance != d {
					return nil, fmt.Errorf("server: artifact keyed d=%d was compiled for %s", d, a.Meta)
				}
				if a.Meta.P != cfg.P {
					return nil, fmt.Errorf("server: artifact %s disagrees with configured p=%g", a.Meta, cfg.P)
				}
				var err error
				env, err = montecarlo.NewEnvFromArtifact(a)
				if err != nil {
					return nil, err
				}
				gen = a.Meta.Generation
			} else {
				// The process-wide cache deduplicates builds across pools,
				// servers and tests sharing an operating point.
				var err error
				env, err = montecarlo.SharedEnv(d, d, cfg.P)
				if err != nil {
					return nil, err
				}
			}
		}
		p, err := s.buildPool(d, gen, env, factory, cfg.Decoder)
		if err != nil {
			return nil, err
		}
		slot := &distSlot{live: []*distPool{p}}
		slot.cur.Store(p)
		n := env.Model.NumDetectors
		slot.requests.New = func() interface{} { return &request{syndrome: bitvec.New(n)} }
		s.pools[d] = slot
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if cfg.IdleTimeout > 0 {
		s.reaperWG.Add(1)
		go s.reaper(cfg.IdleTimeout)
	}
	if s.resumeEnabled() {
		s.reaperWG.Add(1)
		go s.resumeReaper(cfg.StreamResumeTTL)
	}
	return s, nil
}

// buildPool assembles one generation's decoder pool over an environment,
// validating the decoder choice by constructing one instance eagerly. Used
// by New for the startup generations and by Rotate for hot-swapped ones.
func (s *Server) buildPool(d int, gen uint64, env *montecarlo.Env, factory montecarlo.Factory, decoderName string) (*distPool, error) {
	p := &distPool{
		env:   env,
		riceK: uint8(compress.NewRice(env.Model.NumDetectors, env.Model.ExpectedDetectorFlips()).K),
		fp:    decodegraph.FingerprintOf(env.Model, env.GWT),
		dist:  d,
		gen:   gen,
		p:     env.P,
	}
	p.decoders.New = func() interface{} {
		dec, err := factory(env)
		if err != nil {
			// Construction was validated when the pool was built; a later
			// failure would be a programming error.
			panic(fmt.Sprintf("server: decoder construction failed after startup validation: %v", err))
		}
		return dec
	}
	first, err := factory(env)
	if err != nil {
		return nil, fmt.Errorf("server: building %q decoder for d=%d: %w", decoderName, d, err)
	}
	p.engine = decoder.EngineOf(first)
	_, p.inline = first.(decoder.ObsDecoder)
	p.put(first)
	return p, nil
}

// reaper periodically closes connections that have completed no frame for
// longer than the idle timeout. The per-frame read deadline already covers
// peers parked in a read; the reaper is the backstop for connections
// wedged anywhere else (e.g. a disabled write timeout against a peer that
// stopped reading).
func (s *Server) reaper(idle time.Duration) {
	defer s.reaperWG.Done()
	tick := idle / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-idle).UnixNano()
			var stale []*conn
			s.mu.Lock()
			for c := range s.conns {
				if c.lastActive.Load() < cutoff {
					stale = append(stale, c)
				}
			}
			s.mu.Unlock()
			for _, c := range stale {
				s.stats.idleReaped.Add(1)
				//lint:allow errwrap reaping an idle conn is terminal either way; serveConn observes the close on its next read
				c.Conn.Close()
			}
		}
	}
}

// FactoryFor resolves a decoder name through the one registry the daemon,
// the stream pipeline, the load generator and the cluster client share
// (experiments.FactoryFor, which lists the names).
func FactoryFor(name string) (montecarlo.Factory, error) { return experiments.FactoryFor(name) }

// Distances returns the served distances in ascending order.
func (s *Server) Distances() []int {
	out := make([]int, 0, len(s.pools))
	for d := range s.pools {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Fingerprints returns the current decoding-configuration digest per
// served distance — what the handshake advertises. After a rotation this
// is the new generation's digest even while the old one drains.
func (s *Server) Fingerprints() map[int]decodegraph.Fingerprint {
	out := make(map[int]decodegraph.Fingerprint, len(s.pools))
	for d, slot := range s.pools {
		out[d] = slot.cur.Load().fp
	}
	return out
}

// engineStrings shapes the current generations' exact-engine names for the
// JSON snapshot. Keys are decimal distances, like fingerprintStrings.
func (s *Server) engineStrings() map[string]string {
	out := make(map[string]string, len(s.pools))
	for d, slot := range s.pools {
		out[fmt.Sprintf("%d", d)] = slot.cur.Load().engine
	}
	return out
}

// fingerprintStrings shapes the current fingerprints for the JSON snapshot.
func (s *Server) fingerprintStrings() map[string]string {
	out := make(map[string]string, len(s.pools))
	for d, slot := range s.pools {
		out[fmt.Sprintf("%d", d)] = slot.cur.Load().fp.String()
	}
	return out
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		//lint:allow errwrap the caller gets the already-closed error; the listener close is best-effort cleanup
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &conn{Conn: nc, br: bufio.NewReader(nc), stats: s.stats, wTimeout: s.cfg.WriteTimeout}
		c.touch()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//lint:allow errwrap shutdown races an accepted conn; nothing to report the close error to
			nc.Close()
			return nil
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			// Over the connection cap: refuse with an unsolicited
			// overloaded hello-ack instead of silently dropping, off the
			// accept loop so a non-reading peer cannot stall Accept.
			s.connWG.Add(1)
			s.mu.Unlock()
			s.stats.overCap.Add(1)
			go s.refuseOverCap(nc)
			continue
		}
		s.conns[c] = struct{}{}
		// Add under mu: Close sets closed under the same lock, so a Wait
		// can never start between this Add and the closed check above.
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// refuseOverCap answers a connection beyond the cap with StatusOverloaded
// and closes it.
func (s *Server) refuseOverCap(nc net.Conn) {
	defer s.connWG.Done()
	defer nc.Close()
	//lint:allow errwrap best-effort refusal: if the deadline cannot be armed the write fails or times out on its own
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	//lint:allow errwrap best-effort refusal; the conn is closed right after whether the peer heard it or not
	WriteFrame(nc, FrameHelloAck, HelloAck{
		Version: ProtocolVersion,
		Status:  StatusOverloaded,
		Message: fmt.Sprintf("connection limit (%d) reached", s.cfg.MaxConns),
	}.AppendTo(nil))
}

// activeConns counts live client connections.
func (s *Server) activeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every live connection and waits for the
// workers to drain in-flight work.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		//lint:allow errwrap mass teardown: each serveConn observes its own conn close; per-conn errors are unactionable here
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		//lint:allow errwrap listener teardown during Close; Serve observes the accept error and exits
		ln.Close()
	}
	// The queue's senders are the serveConn goroutines; closing their conns
	// above makes each exit on its next read, but one may already hold a
	// parsed frame it is about to enqueue. Wait for all of them before
	// closing the queue, then drain the workers and stop the reapers.
	s.connWG.Wait()
	// With every read loop gone, any surviving resumable session is parked
	// (or already terminal); abort them so their pumps exit.
	s.resumeMu.Lock()
	live := make([]*streamSession, 0, len(s.sessions))
	for _, v := range s.sessions {
		live = append(live, v)
	}
	s.resumeMu.Unlock()
	for _, v := range live {
		s.dropParked(v)
	}
	s.streamWG.Wait()
	close(s.queue)
	s.workerWG.Wait()
	close(s.reaperStop)
	s.reaperWG.Wait()
	return nil
}

// serveConn runs one client stream: handshake, then decode frames until
// the peer hangs up or misbehaves.
//
// A decode request is routed where it is read. On a pool whose decoders
// offer decoder.ObsDecoder, a syndrome of Hamming weight ≤ astrea.MaxHW —
// the sub-µs common case — is decoded right here, since handing it to a
// worker would cost several times the decode; its result is queued on the
// connection like a worker's and flushed before the next read that could
// block. Everything else (heavier syndromes, exact and Union-Find pools,
// wrapped decoders) takes the queue, so backpressure keeps governing the
// work that can actually back up.
func (s *Server) serveConn(c *conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		//lint:allow errwrap deferred teardown; the read loop error that got us here is the one that matters
		c.Close()
	}()
	codec, err := s.handshake(c)
	if err != nil {
		return
	}
	// fl holds the results decoded inline; whatever ends the loop, they
	// still leave (this runs before the deferred close above).
	var fl flusher
	defer fl.flushAll()
	for {
		if !c.frameBuffered() {
			// The next read may block: inline answers go out first.
			fl.flushAll()
		}
		// The payload aliases the connection's read buffer: every branch
		// below is done with it before the next readFrame.
		t, payload, err := c.readFrame(s.cfg.MaxFrameBytes, s.cfg.IdleTimeout)
		if errors.Is(err, ErrChecksum) {
			// The frame arrived intact length-wise but its CRC32C trailer
			// disagrees: without the checksum this would have decoded into a
			// silently wrong correction. The framing is still synchronised,
			// so reject just this frame — correlating by the (best-effort)
			// sequence number — and keep the stream.
			c.touch()
			s.stats.checksumFail.Add(1)
			var seq uint64
			if len(payload) >= 8 {
				seq = binary.LittleEndian.Uint64(payload[:8])
			}
			//lint:allow errwrap best-effort rejection; a failed write already closed the conn and the next read exits the loop
			c.writeFrame(FrameError, ErrorFrame{
				Seq:     seq,
				Code:    StatusProtocolError,
				Message: "frame checksum mismatch",
			}.AppendTo(nil))
			continue
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.stats.idleReaped.Add(1)
			}
			return
		}
		c.touch()
		if t == FramePing && c.features&FeatureProbe != 0 {
			// Health probe: echo the nonce immediately, off the decode
			// queue, so liveness checks see transport health rather than
			// queue depth.
			s.stats.pings.Add(1)
			//lint:allow errwrap best-effort probe echo; a failed write already closed the conn and the next read exits the loop
			c.writeFrame(FramePong, payload)
			continue
		}
		if t == FrameStreamOpen || t == FrameStreamResume {
			// The session's own read loop does not know this flusher.
			fl.flushAll()
		}
		if t == FrameStreamOpen {
			// Switch into a windowed streaming session; a nil return means
			// the stream closed cleanly and the connection resumes ordinary
			// decode traffic.
			if err := s.serveStream(c, codec, payload); err != nil {
				return
			}
			continue
		}
		if t == FrameStreamResume {
			// Reattach to a parked streaming session; a nil return means
			// the connection is back in (or never left) decode mode — the
			// resume was refused cleanly or the resumed session has since
			// closed.
			if err := s.serveStreamResume(c, codec, payload); err != nil {
				return
			}
			continue
		}
		if t != FrameDecode {
			return // protocol violation: only decode/probe/stream frames after handshake
		}
		arrival := time.Now()
		req, err := ParseDecodeRequest(payload)
		if err != nil {
			return
		}
		r := c.slot.requests.Get().(*request)
		consumed, err := codec.Decode(req.Payload, r.syndrome)
		if err != nil || consumed != len(req.Payload) {
			c.slot.requests.Put(r)
			s.stats.malformed.Add(1)
			//lint:allow errwrap best-effort per-request fault report; a failed write already closed the conn
			c.writeFrame(FrameError, ErrorFrame{
				Seq:     req.Seq,
				Code:    StatusProtocolError,
				Message: fmt.Sprintf("undecodable syndrome payload (%d bytes)", len(req.Payload)),
			}.AppendTo(nil))
			continue
		}
		deadline := req.DeadlineNs
		if deadline == 0 {
			deadline = s.cfg.DefaultDeadlineNs
		}
		r.conn, r.seq, r.pool, r.deadlineNs, r.arrival = c, req.Seq, s.acquirePool(c), deadline, arrival
		s.stats.offered.Add(1)
		s.stats.bytesIn.Add(int64(len(req.Payload)))
		if r.pool.inline && r.syndrome.PopCount() <= astrea.MaxHW {
			s.stats.accepted.Add(1)
			s.stats.inline.Add(1)
			s.decodeOne(r, &fl)
			r.recycle()
			continue
		}
		select {
		case s.queue <- r:
			s.stats.accepted.Add(1)
		default:
			// Backpressure: the bounded queue is full. Nothing is decoded;
			// the client is told how long to back off.
			s.releasePool(r.pool)
			r.recycle()
			s.stats.rejected.Add(1)
			//lint:allow errwrap best-effort backpressure hint; a failed write already closed the conn
			c.writeFrame(FrameReject, RejectFrame{
				Seq:          req.Seq,
				RetryAfterNs: s.cfg.RetryAfterNs,
			}.AppendTo(nil))
		}
	}
}

// handshake runs the Hello/HelloAck exchange, pins the stream to a
// distance and returns its negotiated codec. The codec keeps the handshake
// generation's Rice parameter for the connection's life; a rotation never
// changes the syndrome width, so it stays valid for every later
// generation.
func (s *Server) handshake(c *conn) (compress.Codec, error) {
	// One deadline covers the whole exchange (Hello read + ack write): a
	// peer that connects and never speaks, or trickles the Hello, is
	// dropped instead of pinning a connection slot forever.
	if to := s.cfg.HandshakeTimeout; to > 0 {
		if err := c.Conn.SetDeadline(time.Now().Add(to)); err != nil {
			// An unarmable deadline means the conn is already dead; without
			// it a never-speaking peer would pin this slot forever.
			return nil, fmt.Errorf("server: arming handshake deadline: %w", err)
		}
		defer c.Conn.SetDeadline(time.Time{})
	}
	// The Hello is read through the connection's buffered reader, so bytes a
	// pipelining peer sent behind it are kept for the decode loop; the
	// handshake deadline above stands in for the idle cutoff.
	t, payload, err := c.readFrame(s.cfg.MaxFrameBytes, 0)
	if err != nil {
		return nil, err
	}
	refuse := func(status uint8, msg string) (compress.Codec, error) {
		//lint:allow errwrap best-effort refusal: the handshake error below is what serveConn acts on either way
		c.writeFrame(FrameHelloAck, HelloAck{
			Version: ProtocolVersion, Status: status, Message: msg,
		}.AppendTo(nil))
		return nil, fmt.Errorf("server: handshake refused: %s", msg)
	}
	if t != FrameHello {
		return refuse(StatusProtocolError, fmt.Sprintf("expected hello frame, got type %d", t))
	}
	h, err := ParseHello(payload)
	switch {
	case errors.Is(err, errBadVersion):
		return refuse(StatusBadVersion, err.Error())
	case err != nil:
		return refuse(StatusProtocolError, err.Error())
	}
	slot, ok := s.pools[int(h.Distance)]
	if !ok {
		return refuse(StatusUnknownDistance,
			fmt.Sprintf("distance %d not served (have %v)", h.Distance, s.Distances()))
	}
	pool := slot.cur.Load()
	codec, err := compress.ForID(h.Codec, uint(pool.riceK))
	if err != nil {
		return refuse(StatusUnknownCodec, err.Error())
	}
	c.slot = slot
	// Accept the intersection of the offered and supported features and
	// advertise every live generation's fingerprint, led by the current
	// one. The negotiated framing (checksums) applies to every frame AFTER
	// the ack, which itself still travels unchecked.
	ack := HelloAck{
		Version:        ProtocolVersion,
		Status:         StatusOK,
		NumDetectors:   uint32(pool.env.Model.NumDetectors),
		Codec:          h.Codec,
		RiceK:          pool.riceK,
		QueueDepth:     uint32(s.cfg.QueueDepth),
		Features:       h.Features & s.features,
		Fingerprint:    uint64(pool.fp),
		FingerprintSet: s.liveFingerprints(slot, pool),
	}
	if err := c.writeFrame(FrameHelloAck, ack.AppendTo(nil)); err != nil {
		return nil, err
	}
	c.features = ack.Features
	return codec, nil
}

// worker drains the queue in batches: one blocking receive, then up to
// BatchSize-1 opportunistic receives, amortising wake-ups under load while
// adding no latency when idle. Results are queued on their connections as
// they are decoded and flushed once per batch — one write syscall per
// connection per batch instead of one per result — or earlier when the
// oldest has waited past resultFlushBound. Requests answered inline by
// serveConn never reach a worker, so batches count queued work only.
func (s *Server) worker() {
	defer s.workerWG.Done()
	var fl flusher
	// Whatever ends the worker, results it has queued still leave.
	defer fl.flushAll()
	batch := make([]*request, 0, s.cfg.BatchSize)
	for {
		r, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], r)
	fill:
		for len(batch) < s.cfg.BatchSize {
			select {
			case r, ok := <-s.queue:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		s.stats.batches.Add(1)
		s.stats.batched.Add(int64(len(batch)))
		for _, r := range batch {
			s.decodeOne(r, &fl)
			r.recycle()
		}
		fl.flushAll()
	}
}

// recycle returns a request whose answer has been queued (or refused) to
// its distance's pool, keeping only the syndrome buffer.
func (r *request) recycle() {
	slot := r.conn.slot
	*r = request{syndrome: r.syndrome}
	slot.requests.Put(r)
}

// decodeOne runs one request on a pooled decoder and queues its response on
// the connection, noting the debt in the caller's flusher — a worker's, or
// the connection reader's when inline. A decoder panic is contained here:
// the request is answered with a StatusInternalError frame, the poisoned
// instance is discarded, and the caller (and the client's stream) keep
// going. An answer whose sojourn overran its deadline budget is still
// delivered, flagged FlagDeadlineMiss.
func (s *Server) decodeOne(r *request, fl *flusher) {
	defer s.releasePool(r.pool)
	res, err := r.pool.decode(r.syndrome)
	done := time.Now()
	sojournNs := float64(done.Sub(r.arrival).Nanoseconds())
	if err != nil {
		s.stats.panics.Add(1)
		//lint:allow errwrap best-effort fault report; a failed write already closed the conn and the client re-dials
		r.conn.writeFrame(FrameError, ErrorFrame{
			Seq:     r.seq,
			Code:    StatusInternalError,
			Message: err.Error(),
		}.AppendTo(nil))
		return
	}
	onTime := s.stats.tracker.ObserveBudget(sojournNs, float64(r.deadlineNs))
	var flags uint8
	if !onTime {
		flags |= FlagDeadlineMiss
	}
	if res.RealTime {
		flags |= FlagRealTime
	}
	if res.Skipped {
		flags |= FlagSkipped
	}
	weight := res.Weight * 1000
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		weight = 0
	}
	s.stats.completed.Add(1)
	r.conn.queueResult(ResultFrame{
		Seq:         r.seq,
		ObsMask:     res.ObsPrediction,
		WeightMilli: uint64(weight),
		SojournNs:   uint64(sojournNs),
		Flags:       flags,
		Fingerprint: uint64(r.pool.fp),
	})
	fl.queued(r.conn, done)
}
