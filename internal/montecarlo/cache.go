package montecarlo

import (
	"sync"

	"astrea/internal/surface"
)

// Process-wide environment cache. Building an Env is dominated by the
// all-pairs Dijkstra of BuildGWT (DEM extraction is one linear sweep, about
// a tenth of the build at d=7 and 3 % at d=13), yet many callers —
// every per-distance decoder pool in a decode server, every test that sets
// up the same (d, rounds, p) operating point, the experiment harness
// sweeping a grid — ask for identical environments. Envs are immutable
// after construction, so one build can serve them all.
//
// The cache is bounded: a long-lived decode server that rotates through
// artifact generations keeps resolving stream-window environments (one per
// operating point and window shape, WindowRounds+2·PadRounds rounds tall)
// at new physical error rates, and an unbounded map would grow with every
// recalibration forever. Completed entries beyond the count or byte caps
// are evicted least-recently-used; an evicted operating point simply
// rebuilds on next use (callers hold their own *Env references, which stay
// valid — eviction only drops the cache's).

// envKey identifies one cacheable operating point. Only uniform noise maps
// are cacheable (a NoiseMap has no canonical value identity).
type envKey struct {
	d, rounds int
	p         float64
	basis     surface.Basis
}

// envEntry is a singleflight slot: the first caller builds, concurrent
// callers for the same key wait on the same Once instead of duplicating the
// work.
type envEntry struct {
	once sync.Once
	env  *Env
	err  error

	// Guarded by envCacheMu. done marks the build complete (only completed
	// entries are evictable — evicting a slot mid-build would duplicate the
	// work its waiters are sharing); lastUse is the LRU clock; bytes is the
	// entry's footprint estimate.
	done    bool
	lastUse uint64
	bytes   int64
}

// Default SharedEnv cache bounds. 64 operating points at ≤256 MiB of
// tables comfortably covers a grid sweep while capping what a rotating
// server can accumulate.
const (
	DefaultEnvCacheEntries = 64
	DefaultEnvCacheBytes   = 256 << 20
)

var (
	envCacheMu        sync.Mutex
	envCache          = map[envKey]*envEntry{}
	envUseSeq         uint64
	envCacheBytes     int64
	envCacheEvictions int64
	envMaxEntries     = DefaultEnvCacheEntries
	envMaxBytes       = int64(DefaultEnvCacheBytes)
)

// SetSharedEnvBounds retunes the process-wide cache's bounds: at most
// maxEntries completed environments totalling at most maxBytes of estimated
// footprint (either ≤ 0 removes that cap). Tightened bounds evict
// immediately, least-recently-used first.
func SetSharedEnvBounds(maxEntries int, maxBytes int64) {
	envCacheMu.Lock()
	defer envCacheMu.Unlock()
	envMaxEntries = maxEntries
	envMaxBytes = maxBytes
	evictEnvsLocked(nil)
}

// SharedEnvCacheStats reports the cache's current occupancy and the
// lifetime eviction count (surfaced by the decode server's /stats so
// operators can see rotation churn pressuring the cache).
func SharedEnvCacheStats() (entries int, bytes int64, evictions int64) {
	envCacheMu.Lock()
	defer envCacheMu.Unlock()
	return len(envCache), envCacheBytes, envCacheEvictions
}

// envFootprint estimates an environment's resident bytes, dominated by the
// dense Global Weight Table (GWT.ResidentBytes).
func envFootprint(e *Env) int64 {
	if e == nil || e.Model == nil || e.GWT == nil {
		return 1 << 12
	}
	return e.GWT.ResidentBytes() + int64(len(e.Model.Errors))*40 + (1 << 12)
}

// evictEnvsLocked drops completed least-recently-used entries until both
// bounds hold, never touching keep (the entry being served right now) or
// slots still building. Callers hold envCacheMu.
func evictEnvsLocked(keep *envEntry) {
	over := func() bool {
		return (envMaxEntries > 0 && len(envCache) > envMaxEntries) ||
			(envMaxBytes > 0 && envCacheBytes > envMaxBytes)
	}
	for over() {
		var victimKey envKey
		var victim *envEntry
		for k, e := range envCache {
			if !e.done || e == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(envCache, victimKey)
		envCacheBytes -= victim.bytes
		envCacheEvictions++
	}
}

// SharedEnv returns the process-wide cached environment for a basis-Z
// memory experiment at (d, rounds, p), building it on first use. Concurrent
// callers of the same operating point share one build. The returned Env is
// shared — it is immutable, so this is safe, but callers must not modify
// it. Failed builds are cached too (the inputs are deterministic, retrying
// cannot succeed).
func SharedEnv(d, rounds int, p float64) (*Env, error) {
	return sharedEnv(envKey{d: d, rounds: rounds, p: p, basis: surface.BasisZ})
}

// SharedEnvBasis is SharedEnv for an explicit memory basis.
func SharedEnvBasis(basis surface.Basis, d, rounds int, p float64) (*Env, error) {
	return sharedEnv(envKey{d: d, rounds: rounds, p: p, basis: basis})
}

func sharedEnv(k envKey) (*Env, error) {
	envCacheMu.Lock()
	e, ok := envCache[k]
	if !ok {
		e = &envEntry{}
		envCache[k] = e
	}
	envUseSeq++
	e.lastUse = envUseSeq
	envCacheMu.Unlock()
	e.once.Do(func() {
		code, err := surface.New(k.d)
		if err != nil {
			e.err = err
			return
		}
		cc, err := code.Memory(k.basis, k.rounds, surface.Uniform(k.p))
		if err != nil {
			e.err = err
			return
		}
		env, err := NewEnvFromCircuit(code, cc, k.rounds, k.p)
		if err != nil {
			e.err = err
			return
		}
		env.Basis = k.basis
		e.env = env
	})
	envCacheMu.Lock()
	if !e.done {
		e.done = true
		e.bytes = envFootprint(e.env)
		envCacheBytes += e.bytes
		evictEnvsLocked(e)
	}
	envCacheMu.Unlock()
	return e.env, e.err
}
