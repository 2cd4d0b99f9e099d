package shmrename

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shmrename/internal/integrity"
	"shmrename/internal/leasecache"
	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/recovery"
	"shmrename/internal/registry"
	_ "shmrename/internal/registry/all" // link every backend's registration
	"shmrename/internal/shm"
)

// ArenaBackend selects a long-lived arena implementation.
type ArenaBackend string

// Available arena backends.
const (
	// ArenaLevel is the LevelArray-style arena: levels of geometrically
	// growing packed TAS bitmaps, random probes falling through to a
	// deterministic backstop scan. Issued names track the instantaneous
	// occupancy; with ProbeWord, probes take each level's lowest open word
	// (first fit) until a claim is lost to a concurrent claimant, and only
	// then draw among its 4 lowest open words, so names stay within a few
	// words of the live count and, without contention, below it. The
	// default.
	ArenaLevel ArenaBackend = "level-array"
	// ArenaTau is the long-lived adaptation of the paper's τ-register
	// algorithm: counting devices front blocks of names, and releases
	// return both the name and the device bit.
	ArenaTau ArenaBackend = "tau-longlived"
	// ArenaElastic is the contention-proportional level arena: the same
	// geometric ladder as ArenaLevel, but only a prefix of it is resident —
	// levels are appended under load and drained/retired when occupancy
	// falls, without blocking concurrent acquires, so probe work and
	// resident memory track live holders instead of the provisioned peak.
	// ArenaConfig.Elastic tunes the policy; with this backend the default
	// policy applies even when that field is nil. (Equivalently: ArenaLevel
	// plus a non-nil ArenaConfig.Elastic selects this implementation.)
	ArenaElastic ArenaBackend = "elastic-level"
	// ArenaBackendSharded is the striped multicore frontend: the name
	// space is partitioned across ArenaConfig.Shards level-array
	// sub-arenas, each goroutine keeps a cached home-shard affinity, and a
	// full home shard overflows to two randomly chosen neighbor shards
	// before a deterministic full sweep. Issued names stay within the
	// shards × per-shard-bound tightness envelope (see NameBound).
	ArenaBackendSharded ArenaBackend = "sharded"
)

// ProbeMode selects the granularity at which an arena searches for free
// slots.
type ProbeMode string

// Probe modes.
const (
	// ProbeAuto selects the default for the execution surface: the public
	// arena runs natively, so it gets the word-granular engine (ProbeWord).
	ProbeAuto ProbeMode = ""
	// ProbeWord is the word-granular claim engine: a probe picks a level's
	// lowest open 64-name bitmap word, snapshots it and claims a free bit
	// in one CAS; after a claim is lost, the caller's probes draw among the
	// level's 4 lowest open words instead, until an acquire completes
	// without a loss. Fallback scans walk words instead of names, and batch
	// acquires claim up to 64 names per shared-memory access. The default.
	ProbeWord ProbeMode = "word"
	// ProbeBit is the paper's per-bit probe path: every probe is a single
	// TAS on one name. It matches the deterministic simulator's golden
	// fingerprints and costs one shared-memory access per examined name —
	// choose it to reproduce the paper's cost model, not for throughput.
	ProbeBit ProbeMode = "bit"
)

// ArenaConfig parameterizes a long-lived renaming arena.
type ArenaConfig struct {
	// Capacity is the number of concurrent holders the arena guarantees
	// to serve (required, >= 1). More may be admitted on a best-effort
	// basis; see Arena.Acquire.
	Capacity int
	// Backend defaults to ArenaLevel. Besides the named constants, any
	// backend registered with the in-process backend registry resolves by
	// its registry name (e.g. "lease-cached"); the named constants are
	// registry names too, so every backend is built the same way. A knob
	// the resolved backend's capabilities do not cover is a config error,
	// never silently dropped.
	Backend ArenaBackend
	// Shards is the stripe count of a sharded backend (ArenaBackendSharded
	// or "lease-cached"): the arena is partitioned into Shards independent
	// sub-arenas so concurrent Acquire/Release traffic scales with cores.
	// Setting it with an unsharded backend is a config error. 0 selects
	// GOMAXPROCS clamped to [1, Capacity]; explicit values must lie in
	// [1, Capacity].
	Shards int
	// Probe selects the slot-search granularity: ProbeWord (the default)
	// or ProbeBit. See the ProbeMode constants. Caching backends
	// ("lease-cached") lease whole words, so ProbeBit is a config error
	// with them.
	Probe ProbeMode
	// LeaseBlocks enables per-worker word-block lease caches: workers
	// lease blocks of LeaseBlocks names (at most 64 — one bitmap word,
	// claimed in a single word-granular batch step) and then serve Acquire
	// and absorb Release from a per-worker stack, with no step-counted
	// shared-memory operation on the fast path. A hit takes the worker
	// slot's mutex, adjusts the slot's parked count and flips the name's
	// parked bit, on cache lines no other worker's hits write, so workers
	// on different cores do not contend: two workers churning on two cores
	// pair a release with an acquire in about 110 ns, against 130 ns
	// uncached on two stripes and 240 ns on the level array
	// (BenchmarkArenaChurn, PERF.md). A worker whose cache runs dry first
	// takes every name parked in an idle worker cache — one no worker
	// draws from or releases into while the refill watches (at most 1 µs)
	// — and leases a fresh block only when no other cache has names to
	// give, so the names parked track the workers that are active rather
	// than every per-P cache a goroutine has run on. Fresh blocks are
	// leased first-fit — the lowest free words of the lowest stripe with
	// room — so parked blocks sit at the bottom of the name space, and
	// either restock is issued lowest name first. The backend under the
	// cache is built packed: the cache reaches it only for whole-block
	// refills and spills, so padding its words would only cost memory.
	// Released names recirculate through the releasing worker's cache, so
	// steady-state churn stops touching the backend entirely — the regime
	// BENCH_5.json records. The trade-off is name tightness: cached names
	// are claimed but serve nobody, so provision Capacity above the
	// expected peak holders plus 2×LeaseBlocks per active worker (see
	// PERF.md).
	// Caching composes with Lease — a cached block is one lease, renewed
	// by Heartbeat and reclaimed wholesale if this handle crashes. 0 (the
	// default) disables caching; enabling it requires the word-granular
	// claim engine (ProbeBit is a config error), and a backend that caches
	// already ("lease-cached") refuses it.
	LeaseBlocks int
	// Elastic, when non-nil, makes the arena contention-proportional: the
	// geometric level ladder starts at MinCapacity's worth of levels and
	// grows/shrinks with live occupancy, so probe work and resident
	// bitmap+stamp memory track current holders instead of the provisioned
	// peak (see Stats().CapacityNow). Resizes never block concurrent
	// acquires, and a shrink never reclaims a held name. Supported by the
	// level-array backend (which it turns into ArenaElastic), by sharded
	// backends (per-shard elasticity) and by registry backends declaring
	// the Elastic capability; a config error elsewhere. Nil (the default)
	// keeps every backend but ArenaElastic fixed-capacity — the existing
	// deterministic fingerprints and benchmark gates are unaffected.
	Elastic *ElasticConfig
	// Seed drives client-side randomness (probe targets).
	Seed uint64
	// Lease enables crash recovery: every claim carries a holder/epoch
	// lease stamp, Heartbeat renews this handle's leases, and stale leases
	// of dead holders are swept back into the pool (by the background
	// reaper, SweepStale calls, and — for mmap-backed arenas — every
	// OpenArena). Nil (the default) disables the lease layer at zero cost;
	// enabling it adds one shared-memory step per name to each acquire and
	// release (the stamp publish/retire CAS).
	Lease *LeaseConfig
	// Integrity enables the self-healing layer: an integrity scrubber that
	// verifies the arena's conservation invariant (every name free, parked,
	// or granted — never two at once), repairs repairable damage, and —
	// with Quarantine on — withdraws irreparably damaged bitmap words from
	// circulation instead of risking a duplicate grant. Health surfaces the
	// verdict, Scrub runs a pass on demand, and ScrubInterval runs them in
	// the background. Requires Lease (the scrubber reads the lease stamps);
	// nil (the default) disables the layer at zero cost.
	Integrity *IntegrityConfig
}

// IntegrityConfig parameterizes the self-healing integrity layer of an
// arena. See ArenaConfig.Integrity.
type IntegrityConfig struct {
	// ScrubInterval, when positive, starts a background goroutine running
	// one integrity scrub every interval; Close stops it. Zero means no
	// background scrubbing — passes happen only on Scrub calls.
	ScrubInterval time.Duration
	// Quarantine enables containment: a bitmap word with irreparable
	// damage (state that no legal execution produces, e.g. a live client
	// stamp over a clear claim bit) is withdrawn from circulation whole —
	// its free names are seized under quarantine stamps, Capacity drops by
	// the quarantined count, and Health reports Degraded. Off, such damage
	// is only detected and reported (Health Failed); nothing is contained.
	// Quarantine requires a backend whose claim bits carry no side state
	// (level-array, sharded, lease-cached, persist); on others the
	// violation is reported unrepaired.
	Quarantine bool
}

func (c *IntegrityConfig) validate() error {
	if c.ScrubInterval < 0 {
		return fmt.Errorf("shmrename: IntegrityConfig.ScrubInterval must be >= 0, got %v", c.ScrubInterval)
	}
	return nil
}

// Health classifies an arena's integrity state; see Arena.Health.
type Health int

// Health states.
const (
	// Healthy: no unrepaired damage and no quarantined capacity. Arenas
	// without the integrity layer always report Healthy.
	Healthy Health = iota
	// Degraded: the scrubber contained damage by quarantining names — the
	// arena is safe (no duplicate grants) but serves less than its
	// configured capacity. Plan to rebuild the namespace.
	Degraded
	// Failed: damage was detected that the arena could not repair or
	// contain — a lease-cache conservation violation, or an integrity
	// violation with quarantine unavailable. Exclusivity can no longer be
	// vouched for; acquire/release return errors wrapping ErrCorrupted
	// when the failure came from the cache layer.
	Failed
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// ElasticConfig parameterizes the contention-proportional resize policy of
// an arena. See ArenaConfig.Elastic. The zero value selects defaults for
// every knob.
type ElasticConfig struct {
	// MinCapacity floors the resident ladder: the arena never shrinks
	// below the level prefix covering it. 0 selects the smallest level
	// (64 names; per shard on the sharded backend).
	MinCapacity int
	// MaxCapacity caps growth. 0 selects Capacity; an explicit value must
	// be >= Capacity and extends the ladder's reachable ceiling beyond the
	// configured guarantee (Arena.Capacity then reports MaxCapacity).
	MaxCapacity int
	// GrowAt is the occupancy fraction of the current capacity at which an
	// acquire proactively appends the next level, in (0, 1). A failed full
	// pass (the ErrArenaFull signal) grows regardless. 0 selects 0.75.
	GrowAt float64
	// ShrinkAt is the occupancy hysteresis for draining the top level, as
	// a fraction of the capacity without that level; it must stay below
	// GrowAt. 0 selects 0.25.
	ShrinkAt float64
}

// validate checks the knobs against the configured capacity and resolves
// the growth ceiling.
func (c *ElasticConfig) validate(capacity int) (int, error) {
	maxCap := c.MaxCapacity
	if maxCap == 0 {
		maxCap = capacity
	}
	if maxCap < capacity {
		return 0, fmt.Errorf("shmrename: ElasticConfig.MaxCapacity must be 0 or >= Capacity=%d, got %d", capacity, maxCap)
	}
	if maxCap >= 1<<29 {
		return 0, fmt.Errorf("shmrename: ElasticConfig.MaxCapacity must be < 2^29, got %d", maxCap)
	}
	if c.MinCapacity < 0 || c.MinCapacity > maxCap {
		return 0, fmt.Errorf("shmrename: ElasticConfig.MinCapacity must lie in [0, MaxCapacity=%d], got %d", maxCap, c.MinCapacity)
	}
	growAt := c.GrowAt
	if growAt == 0 {
		growAt = 0.75
	}
	if growAt < 0 || growAt >= 1 {
		return 0, fmt.Errorf("shmrename: ElasticConfig.GrowAt must lie in (0, 1), got %v", c.GrowAt)
	}
	if c.ShrinkAt < 0 || c.ShrinkAt >= growAt {
		return 0, fmt.Errorf("shmrename: ElasticConfig.ShrinkAt must lie in [0, GrowAt=%v), got %v", growAt, c.ShrinkAt)
	}
	return maxCap, nil
}

// params translates the public knobs into the registry's common form.
func (c *ElasticConfig) params() *registry.ElasticParams {
	return &registry.ElasticParams{
		MinCapacity: c.MinCapacity,
		GrowAt:      c.GrowAt,
		ShrinkAt:    c.ShrinkAt,
	}
}

// LeaseConfig parameterizes the crash-recovery lease layer of an arena.
// See ArenaConfig.Lease.
type LeaseConfig struct {
	// TTL is how long a lease stays valid without renewal (required,
	// > 0). A holder that neither releases nor heartbeats for longer than
	// TTL is presumed crashed, and the next sweep returns its names to the
	// pool. Resolution is one millisecond.
	TTL time.Duration
	// Reaper, when positive, starts a background goroutine that sweeps the
	// arena every Reaper interval; Close stops it. Zero means no background
	// reaper — sweeps happen only on SweepStale (and at OpenArena time for
	// mmap-backed arenas).
	Reaper time.Duration
	// Alive, when non-nil, is a liveness oracle consulted before reclaiming
	// a TTL-stale holder: reporting true spares the holder's names. The
	// holder value is the handle's process ID — identically for NewArena
	// and OpenArena — so kill(pid, 0)-style oracles work unchanged across
	// arena kinds. (Only on exotic platforms whose PIDs overflow the 24-bit
	// stamp holder field is the PID folded into range; see shm.MaxHolder.)
	// The mmap-backed arena defaults to probing the holder's process with
	// kill(pid, 0); in-process arenas default to nil (heartbeats alone).
	Alive func(holder uint64) bool
}

func (c *LeaseConfig) validate() error {
	if c.TTL <= 0 {
		return fmt.Errorf("shmrename: LeaseConfig.TTL must be > 0, got %v", c.TTL)
	}
	if c.Reaper < 0 {
		return fmt.Errorf("shmrename: LeaseConfig.Reaper must be >= 0, got %v", c.Reaper)
	}
	return nil
}

// ttlEpochs converts the TTL to whole lease epochs (milliseconds), at
// least one.
func (c *LeaseConfig) ttlEpochs() uint64 {
	e := uint64(c.TTL / time.Millisecond)
	if e == 0 {
		e = 1
	}
	return e
}

// Arena full/validation errors.
var (
	// ErrArenaFull reports that Acquire found no free slot across several
	// full passes. It signals over-subscription or heavy churn contention
	// (a concurrent stream of acquires and releases can race every scan
	// even below capacity, though that is vanishingly unlikely across the
	// retry passes); treat it as backpressure and retry after backing off.
	// Returned errors wrap it together with the arena's capacity (and, for
	// batch acquires, the requested batch size).
	ErrArenaFull = errors.New("shmrename: arena full")
	// ErrNotHeld reports a release of a name that is not currently held.
	// Returned errors wrap it together with the offending name, identically
	// on every backend.
	ErrNotHeld = errors.New("shmrename: name not held")
	// ErrClosed reports an operation on a closed arena. Acquire, AcquireN,
	// Release, and ReleaseAll return an error wrapping it after Close,
	// identically on every backend; Heartbeat and SweepStale report zero
	// work instead (their contracts are counts, not errors).
	ErrClosed = errors.New("shmrename: arena closed")
	// ErrCorrupted reports that the arena detected state damage it cannot
	// vouch for — a lease-cache conservation violation surfaced through
	// ArenaConfig.Integrity. The error is sticky: once raised, every later
	// Acquire/AcquireN/Release/ReleaseAll returns it (wrapping the original
	// violation description), and Health reports Failed. Rebuild the arena.
	ErrCorrupted = errors.New("shmrename: arena corrupted")
)

// acquirePasses bounds native Acquire passes before ErrArenaFull: each
// failed pass scanned the full backstop, so by then the arena was observed
// at capacity several times over.
const acquirePasses = 8

// Arena is a long-lived renaming arena: names are acquired, released, and
// reacquired indefinitely, and at every instant the live holders' names are
// pairwise distinct. All methods are safe for concurrent use from multiple
// goroutines. Construct with NewArena.
//
// This is the native-mode surface (real goroutines on sync/atomic); the
// deterministic adversarial simulator drives the same backends through
// internal/longlived and the E15 churn experiment.
type Arena struct {
	impl   longlived.Arena
	seed   uint64
	nextID atomic.Int64
	procs  sync.Pool
	// cache is the word-block lease cache layer when
	// ArenaConfig.LeaseBlocks is set (impl aliases it then); nil otherwise.
	cache *leasecache.Cache
	// Crash-recovery state; all nil/zero when ArenaConfig.Lease is nil.
	rec        longlived.Recoverable
	holder     uint64
	epochs     shm.EpochSource
	sweeper    *recovery.Sweeper
	stopReaper func()
	closer     func() error // extra teardown (mmap-backed arenas)
	closed     atomic.Bool
	// Self-healing state; all nil when ArenaConfig.Integrity is nil.
	scrubber  *integrity.Scrubber
	stopScrub func()
	// corrupted latches the first conservation-violation description: the
	// sticky ErrCorrupted source checked by every mutating operation.
	corrupted atomic.Pointer[string]
	// Cumulative operation statistics; see Stats. Acquire/release counts
	// are striped so the counter update cannot become the shared-memory
	// operation the lease-cache fast path just eliminated.
	acquires     striped
	acquireSteps striped
	releases     striped
	heartbeats   atomic.Int64
}

// statStripes is the stripe count of the operation counters (power of 2).
const statStripes = 8

// striped is a cache-line-padded striped counter: writers pick a lane by
// their proc ID, so concurrent hot-path increments land on disjoint cache
// lines instead of serializing on one shared word; readers sum the lanes.
// The leading pad keeps lane 0 off the line of the fields before it —
// Arena's closed and corrupted flags, which every operation reads.
type striped struct {
	_     [64]byte
	lanes [statStripes]struct {
		v atomic.Int64
		_ [56]byte
	}
}

// add bumps the lane's counter.
func (s *striped) add(lane int, d int64) { s.lanes[lane&(statStripes-1)].v.Add(d) }

// total sums the lanes (a racy snapshot, like any concurrent counter read).
func (s *striped) total() int64 {
	var t int64
	for i := range s.lanes {
		t += s.lanes[i].v.Load()
	}
	return t
}

// ArenaStats is a snapshot of an arena's cumulative operation counters.
// Steps are shared-memory accesses in the sense of the paper's cost model,
// so AcquireSteps/Acquires is the machine-independent structural cost of
// finding a free slot — the metric the BENCH_2/BENCH_3/BENCH_4 regression
// gates track.
type ArenaStats struct {
	// Acquires counts successfully acquired names (batch acquires count
	// every name of the batch).
	Acquires int64
	// AcquireSteps totals the shared-memory steps spent inside successful
	// Acquire and AcquireN calls.
	AcquireSteps int64
	// Releases counts successfully released names.
	Releases int64
	// Heartbeats counts Heartbeat calls. Always 0 with leases off.
	Heartbeats int64
	// Sweeps counts recovery sweep passes (SweepStale calls, background
	// reaper ticks, and the OpenArena on-open sweep). Always 0 with leases
	// off.
	Sweeps int64
	// Reclaimed counts names returned to the pool by recovery sweeps —
	// leases of crashed holders, adopted orphan bits, and resumed
	// half-done reclaims. Always 0 with leases off.
	Reclaimed int64
	// CacheRefills counts word-block leases the cache layer took from the
	// backend — each one word-granular batch claim that funds up to
	// LeaseBlocks local acquires. A worker cache that runs dry leases only
	// when no idle worker cache has names parked; a block taken from one
	// is a steal. Always 0 with LeaseBlocks off.
	CacheRefills int64
	// CacheSpills counts whole blocks the cache returned to the backend
	// under release-side pressure (a worker cache at its cap). Always 0
	// with LeaseBlocks off.
	CacheSpills int64
	// CacheSteals counts takings from another worker's cache: every name
	// parked in an idle cache (at most 2×LeaseBlocks), taken by a worker
	// cache that ran dry before it asks the backend, counts once, and so
	// does a single name taken when both came up empty. Always 0 with
	// LeaseBlocks off.
	CacheSteals int64
	// CapacityNow is the capacity resident right now: the summed sizes of
	// an elastic arena's active levels, tracking live contention between
	// ElasticConfig.MinCapacity and the growth ceiling. Fixed-capacity
	// backends report Capacity — the two new fields are zero-delta there.
	CapacityNow int
	// PeakCapacity is the largest CapacityNow the arena has reached;
	// Capacity for fixed backends.
	PeakCapacity int
	// ResidentBytes is the bitmap, saturation-hint, and lease-stamp
	// storage allocated so far by backends that report it (level-ladder
	// arenas, fixed and elastic, and OpenArena's mapped namespace).
	// Bitmaps and stamp pages become resident on first claim, so it
	// follows the levels holders have reached — the memory-proportionality
	// proxy BENCH_6.json records. 0 for backends without a footprint report.
	ResidentBytes int64
	// ScrubPasses counts completed integrity scrub passes (Scrub calls and
	// background ticks). Always 0 with Integrity off.
	ScrubPasses int64
	// Repaired counts names the scrubber repaired across all passes:
	// adopted orphan bits, dropped residual stamps, purged phantom cache
	// entries, re-seized quarantine bits. Always 0 with Integrity off.
	Repaired int64
	// Quarantined counts names the scrubber withdrew from circulation
	// across all passes. Always 0 with Integrity off.
	Quarantined int64
}

// Stats returns a snapshot of the arena's cumulative operation counters.
func (a *Arena) Stats() ArenaStats {
	st := ArenaStats{
		Acquires:     a.acquires.total(),
		AcquireSteps: a.acquireSteps.total(),
		Releases:     a.releases.total(),
		Heartbeats:   a.heartbeats.Load(),
	}
	if a.cache != nil {
		st.CacheRefills, st.CacheSpills, st.CacheSteals = a.cache.Stats()
	}
	st.CapacityNow = a.impl.Capacity()
	st.PeakCapacity = st.CapacityNow
	if el, ok := a.impl.(registry.Elastic); ok {
		st.CapacityNow = el.CapacityNow()
		st.PeakCapacity = el.PeakCapacity()
	}
	if fp, ok := a.impl.(registry.Footprint); ok {
		st.ResidentBytes = fp.ResidentBytes()
	}
	if a.sweeper != nil {
		c := a.sweeper.Counters()
		st.Sweeps = int64(c.Sweeps)
		st.Reclaimed = int64(c.Reclaimed)
	}
	if a.scrubber != nil {
		c := a.scrubber.Counters()
		st.ScrubPasses = int64(c.Passes)
		st.Repaired = int64(c.Repaired)
		st.Quarantined = int64(c.Quarantined)
	}
	return st
}

// NewArena builds a long-lived renaming arena.
func NewArena(cfg ArenaConfig) (*Arena, error) {
	if cfg.Capacity < 1 {
		return nil, errors.New("shmrename: ArenaConfig.Capacity must be >= 1")
	}
	// Operation indices are int32 on the hot path; the level ladder's name
	// bound stays below 4x capacity.
	if cfg.Capacity >= 1<<29 {
		return nil, fmt.Errorf("shmrename: ArenaConfig.Capacity must be < 2^29, got %d", cfg.Capacity)
	}
	// Native runs pad each bitmap word to its own cache line, except under
	// a lease cache: the cache reaches the backend only for whole-block
	// refills and spills, too rarely for false sharing to cost what the
	// padding does (registry.Config.Padded).
	rcfg := registry.Config{Capacity: cfg.Capacity, MaxPasses: acquirePasses, Scan: "word", Padded: cfg.LeaseBlocks == 0}
	switch cfg.Probe {
	case ProbeAuto, ProbeWord:
	case ProbeBit:
		rcfg.Scan = "bit"
	default:
		return nil, fmt.Errorf("shmrename: unknown ArenaConfig.Probe mode %q (want %q or %q)",
			cfg.Probe, ProbeWord, ProbeBit)
	}
	if cfg.LeaseBlocks < 0 || cfg.LeaseBlocks > 64 {
		return nil, fmt.Errorf("shmrename: ArenaConfig.LeaseBlocks must lie in [0, 64], got %d", cfg.LeaseBlocks)
	}
	if cfg.LeaseBlocks > 0 && cfg.Probe == ProbeBit {
		return nil, fmt.Errorf("shmrename: ArenaConfig.LeaseBlocks leases whole bitmap words and requires the word-granular claim engine; it cannot combine with Probe %q", ProbeBit)
	}
	if cfg.Integrity != nil {
		if err := cfg.Integrity.validate(); err != nil {
			return nil, err
		}
		if cfg.Lease == nil {
			return nil, errors.New("shmrename: ArenaConfig.Integrity requires ArenaConfig.Lease (the scrubber verifies the lease stamps)")
		}
	}
	b, err := cfg.backend()
	if err != nil {
		return nil, err
	}
	if b.Caps.Sharded {
		if cfg.Shards < 0 || cfg.Shards > cfg.Capacity {
			return nil, fmt.Errorf("shmrename: ArenaConfig.Shards must lie in [1, Capacity=%d], got %d", cfg.Capacity, cfg.Shards)
		}
		rcfg.Shards = cfg.Shards
		if rcfg.Shards == 0 {
			rcfg.Shards = min(runtime.GOMAXPROCS(0), cfg.Capacity)
		}
	}
	// The elastic policy resolves its growth ceiling up front: the ladder
	// shape is provisioned for it, residency starts near MinCapacity.
	if cfg.Elastic != nil {
		if rcfg.Capacity, err = cfg.Elastic.validate(cfg.Capacity); err != nil {
			return nil, err
		}
		rcfg.Elastic = cfg.Elastic.params()
	}
	// The lease layer stamps every claim with this handle's holder
	// identity (the process ID), so Heartbeat renews all of the handle's
	// names at once and the handle — not individual goroutines — is the
	// recovery unit.
	var holder uint64
	if cfg.Lease != nil {
		if err := cfg.Lease.validate(); err != nil {
			return nil, err
		}
		// The raw PID, so a LeaseConfig.Alive oracle written as kill(pid, 0)
		// probes the right process for in-process and mmap-backed arenas
		// alike. PIDs fit the 24-bit stamp holder field on every mainstream
		// kernel (Linux caps pid_max at 2^22); an out-of-range PID is folded
		// in-range as a last resort — Alive oracles cannot rely on it there.
		holder = uint64(os.Getpid())
		if holder < 1 || holder > shm.MaxHolder {
			holder = holder%shm.MaxHolder + 1
		}
		rcfg.Epochs = shm.WallEpochs{}
		rcfg.Holder = holder
	}
	impl := b.New(rcfg)
	var cache *leasecache.Cache
	if cfg.LeaseBlocks > 0 {
		cache = leasecache.New(impl, leasecache.Config{Block: cfg.LeaseBlocks})
		impl = cache
	}
	a := &Arena{impl: impl, cache: cache, seed: cfg.Seed}
	if cfg.Lease != nil {
		rec, ok := impl.(longlived.Recoverable)
		if !ok {
			return nil, fmt.Errorf("shmrename: backend %q does not support leases", b.Name)
		}
		a.initLease(rec, holder, shm.WallEpochs{},
			recovery.NewSweeper(rec, recovery.Config{
				TTL:    cfg.Lease.ttlEpochs(),
				Epochs: shm.WallEpochs{},
				Alive:  cfg.Lease.Alive,
			}), cfg.Lease.Reaper)
		if cfg.Integrity != nil {
			a.initIntegrity(cfg.Integrity, cfg.Lease.ttlEpochs(), shm.WallEpochs{})
		}
	}
	return a, nil
}

// backend resolves cfg.Backend through the backend registry — "" is
// ArenaLevel, and ArenaLevel with Elastic set is ArenaElastic — and checks
// each knob cfg sets against the resolved backend's capabilities.
func (cfg *ArenaConfig) backend() (registry.Backend, error) {
	name := cfg.Backend
	if name == "" {
		name = ArenaLevel
	}
	if name == ArenaLevel && cfg.Elastic != nil {
		name = ArenaElastic
	}
	b, ok := registry.Lookup(string(name))
	if !ok {
		return b, fmt.Errorf("shmrename: unknown arena backend %q", cfg.Backend)
	}
	c := b.Caps
	switch {
	case c.External:
		return b, fmt.Errorf("shmrename: backend %q is backed by external state; open it with OpenArena", name)
	case cfg.Shards != 0 && !c.Sharded:
		return b, fmt.Errorf("shmrename: ArenaConfig.Shards needs a sharded backend, got Shards=%d with backend %q", cfg.Shards, name)
	case cfg.Elastic != nil && !c.Elastic && !c.Sharded:
		return b, fmt.Errorf("shmrename: ArenaConfig.Elastic needs an elastic or sharded backend; backend %q is fixed-shape", name)
	case c.Cached && cfg.LeaseBlocks != 0:
		return b, fmt.Errorf("shmrename: backend %q already caches word blocks; ArenaConfig.LeaseBlocks does not apply", name)
	case c.Cached && cfg.Probe == ProbeBit:
		return b, fmt.Errorf("shmrename: backend %q leases whole bitmap words; it cannot combine with Probe %q", name, ProbeBit)
	}
	return b, nil
}

// initIntegrity wires the self-healing layer over the (already wired)
// recovery state: the scrubber, the cache cross-checks, the cache's
// corruption handler (panics become the sticky ErrCorrupted), and the
// background scrub loop when requested.
func (a *Arena) initIntegrity(cfg *IntegrityConfig, ttl uint64, ep shm.EpochSource) {
	icfg := integrity.Config{
		Epochs:     ep,
		TTL:        ttl,
		Quarantine: cfg.Quarantine,
	}
	if a.cache != nil {
		icfg.Parked = a.cache.Parked
		icfg.Purge = a.cache.PurgeParked
		a.cache.SetOnCorruption(func(msg string) {
			m := msg
			a.corrupted.CompareAndSwap(nil, &m)
		})
	}
	a.scrubber = integrity.NewScrubber(a.rec, icfg)
	if cfg.ScrubInterval > 0 {
		a.stopScrub = a.scrubber.Run(a.proc(), cfg.ScrubInterval)
	}
}

// initLease wires the crash-recovery state and starts the background
// reaper when requested.
func (a *Arena) initLease(rec longlived.Recoverable, holder uint64, ep shm.EpochSource, sw *recovery.Sweeper, reaper time.Duration) {
	a.rec = rec
	a.holder = holder
	a.epochs = ep
	a.sweeper = sw
	if reaper > 0 {
		a.stopReaper = sw.Reaper(a.proc(), reaper)
	}
}

// proc hands out a pooled ungated process context; each fresh context gets
// its own deterministic randomness stream.
func (a *Arena) proc() *shm.Proc {
	if p, ok := a.procs.Get().(*shm.Proc); ok {
		return p
	}
	id := int(a.nextID.Add(1) - 1)
	return shm.NewProc(id, prng.NewStream(a.seed, id), nil, 0)
}

// Capacity returns the guaranteed concurrent-holder count. On an arena
// with the integrity layer enabled, quarantined names are subtracted: a
// Degraded arena advertises the capacity it can actually serve.
func (a *Arena) Capacity() int {
	c := a.impl.Capacity()
	if a.scrubber != nil {
		if c -= a.scrubber.QuarantinedNames(); c < 0 {
			c = 0
		}
	}
	return c
}

// NameBound bounds issued names: they lie in [0, NameBound).
func (a *Arena) NameBound() int { return a.impl.NameBound() }

// Held returns the number of currently held names (a snapshot).
func (a *Arena) Held() int { return a.impl.Held() }

// Backend returns the backend's descriptive label.
func (a *Arena) Backend() string { return a.impl.Label() }

// Acquire claims a name that is unique among the arena's current holders.
// It returns an error wrapping ErrArenaFull (and reporting the capacity)
// after repeatedly finding no free slot — the steady-state signal of more
// than Capacity concurrent holders, though sustained churn racing every
// retry pass can produce it early.
//
// On any error the returned name is -1 — outside the valid name range
// [0, NameBound), so code that drops the error can never mistake the
// sentinel for name 0, which a healthy arena hands out constantly.
func (a *Arena) Acquire() (int, error) {
	if a.closed.Load() {
		return -1, fmt.Errorf("%w: Acquire", ErrClosed)
	}
	if err := a.corruptErr(); err != nil {
		return -1, err
	}
	p := a.proc()
	lane := p.ID()
	before := p.Steps()
	name := a.impl.Acquire(p)
	steps := p.Steps() - before
	a.procs.Put(p)
	if name < 0 {
		return -1, fmt.Errorf("%w: capacity %d", ErrArenaFull, a.impl.Capacity())
	}
	a.acquires.add(lane, 1)
	if steps != 0 {
		// A cache hit takes no step: skip its locked add.
		a.acquireSteps.add(lane, steps)
	}
	return name, nil
}

// AcquireN claims a batch of k names, each unique among the arena's
// current holders, amortizing per-call overhead: word-granular backends
// serve up to 64 names per shared-memory access, and the sharded backend
// routes the whole batch through one home/steal/sweep pass. The batch is
// all-or-nothing — if the arena cannot serve all k names, the partial
// batch is released again and an error wrapping ErrArenaFull reports the
// capacity and the requested size. k must lie in [1, Capacity]; larger
// batches could never succeed and are rejected outright.
func (a *Arena) AcquireN(k int) ([]int, error) {
	if a.closed.Load() {
		return nil, fmt.Errorf("%w: AcquireN", ErrClosed)
	}
	if err := a.corruptErr(); err != nil {
		return nil, err
	}
	if k < 1 || k > a.impl.Capacity() {
		return nil, fmt.Errorf("shmrename: AcquireN batch size %d must lie in [1, Capacity=%d]",
			k, a.impl.Capacity())
	}
	p := a.proc()
	lane := p.ID()
	before := p.Steps()
	names := a.impl.AcquireN(p, k, make([]int, 0, k))
	steps := p.Steps() - before
	if len(names) < k {
		a.impl.ReleaseN(p, names)
		a.procs.Put(p)
		return nil, fmt.Errorf("%w: capacity %d, batch of %d unserved", ErrArenaFull, a.impl.Capacity(), k)
	}
	a.procs.Put(p)
	a.acquires.add(lane, int64(k))
	if steps != 0 {
		a.acquireSteps.add(lane, steps)
	}
	return names, nil
}

// Release returns an acquired name to the pool. Only the holder may release
// a name; releasing a name that is not held returns an error wrapping
// ErrNotHeld (a best-effort guard — the arena cannot tell holders apart).
// An out-of-range name is by definition not held, so it reports ErrNotHeld
// too, with the offending name and the valid range in the error text.
func (a *Arena) Release(name int) error {
	if a.closed.Load() {
		return fmt.Errorf("%w: Release", ErrClosed)
	}
	if err := a.corruptErr(); err != nil {
		return err
	}
	if err := a.releasable(name); err != nil {
		return err
	}
	p := a.proc()
	lane := p.ID()
	a.impl.Release(p, name)
	a.procs.Put(p)
	a.releases.add(lane, 1)
	return nil
}

// releasable applies the release validation shared by Release and
// ReleaseAll: out-of-range and not-held names both report ErrNotHeld,
// wrapped with the offending name, identically on every backend.
func (a *Arena) releasable(name int) error {
	if name < 0 || name >= a.impl.NameBound() {
		return fmt.Errorf("%w: name %d outside [0, %d)", ErrNotHeld, name, a.impl.NameBound())
	}
	if !a.impl.IsHeld(name) {
		return fmt.Errorf("%w: name %d", ErrNotHeld, name)
	}
	return nil
}

// ReleaseAll returns a batch of acquired names to the pool, coalescing
// names that share a bitmap word into single clearing steps (level-backed
// arenas) and grouping by shard (sharded arenas). Invalid entries do not
// abort the batch: every valid held name is released, and the errors for
// the others — each wrapping ErrNotHeld with the offending name and its
// position in the batch (`names[i]`) — are joined into the returned
// error, so a caller can tell which entry of a mixed batch failed even
// when the same name appears at several positions. A name repeated within
// the batch is released once; the repeats report ErrNotHeld, exactly as
// sequential Release calls would. The slice is not retained or modified.
func (a *Arena) ReleaseAll(names []int) error {
	if a.closed.Load() {
		return fmt.Errorf("%w: ReleaseAll", ErrClosed)
	}
	if err := a.corruptErr(); err != nil {
		return err
	}
	var errs []error
	valid := make([]int, 0, len(names))
	// Duplicate detection scans the accepted prefix for typical batch
	// sizes (≤64 names fit a word claim) — no extra allocation on the hot
	// path — and switches to a map only for oversized batches.
	var seen map[int]bool
	if len(names) > 64 {
		seen = make(map[int]bool, len(names))
	}
	for i, n := range names {
		if err := a.releasable(n); err != nil {
			errs = append(errs, fmt.Errorf("names[%d]: %w", i, err))
			continue
		}
		dup := false
		if seen != nil {
			dup = seen[n]
			seen[n] = true
		} else {
			dup = slices.Contains(valid, n)
		}
		if dup {
			errs = append(errs, fmt.Errorf("names[%d]: %w: name %d repeated in batch", i, ErrNotHeld, n))
			continue
		}
		valid = append(valid, n)
	}
	if len(valid) > 0 {
		p := a.proc()
		lane := p.ID()
		a.impl.ReleaseN(p, valid)
		a.procs.Put(p)
		a.releases.add(lane, int64(len(valid)))
	}
	return errors.Join(errs...)
}

// Leased reports whether the crash-recovery lease layer is enabled.
func (a *Arena) Leased() bool { return a.rec != nil }

// Heartbeat renews the lease of every name this handle currently holds,
// returning the number of renewed leases. A lease-enabled arena's holder
// must call it more often than once per LeaseConfig.TTL, or a sweep may
// presume the handle crashed (unless the Alive oracle vouches for it) and
// reclaim its names. A name whose lease was already reclaimed is not
// renewed — that name is lost to this holder. With leases off, Heartbeat
// does nothing and returns 0.
func (a *Arena) Heartbeat() int {
	if a.rec == nil || a.closed.Load() {
		return 0
	}
	p := a.proc()
	renewed := longlived.HeartbeatHolder(a.rec, p, a.holder, a.epochs.Now())
	a.procs.Put(p)
	a.heartbeats.Add(1)
	return renewed
}

// SweepStale runs one recovery sweep: every lease that outlived its TTL
// without renewal — and whose holder the Alive oracle (if any) does not
// vouch for — is reclaimed, returning those names to the pool. It returns
// the number of names reclaimed by this pass. Sweeping is safe at any
// time, from any goroutine, concurrently with churn and with the
// background reaper: a live holder's racing heartbeat always wins over
// the reclaim. With leases off, SweepStale does nothing and returns 0.
func (a *Arena) SweepStale() int {
	if a.sweeper == nil || a.closed.Load() {
		return 0
	}
	p := a.proc()
	res := a.sweeper.Sweep(p)
	a.procs.Put(p)
	return res.Reclaimed + res.Resumed
}

// corruptErr returns the sticky corruption error, nil while healthy.
func (a *Arena) corruptErr() error {
	if msg := a.corrupted.Load(); msg != nil {
		return fmt.Errorf("%w: %s", ErrCorrupted, *msg)
	}
	return nil
}

// Health reports the arena's integrity state: Failed when damage was
// detected but not contained (a lease-cache conservation violation — see
// ErrCorrupted — or an integrity violation the scrubber could not
// quarantine), Degraded when damage was contained by quarantining names
// (the arena is safe but serves less than its configured capacity), and
// Healthy otherwise. Arenas without ArenaConfig.Integrity always report
// Healthy. The verdict reflects the most recent scrub pass; run Scrub (or
// configure IntegrityConfig.ScrubInterval) to keep it current.
func (a *Arena) Health() Health {
	if a.corrupted.Load() != nil {
		return Failed
	}
	if a.scrubber == nil {
		return Healthy
	}
	if a.scrubber.Unrepaired() > 0 {
		return Failed
	}
	if a.scrubber.QuarantinedNames() > 0 {
		return Degraded
	}
	return Healthy
}

// ScrubResult reports what one integrity scrub pass found and did; see
// Arena.Scrub.
type ScrubResult struct {
	// Scanned is the number of names examined.
	Scanned int
	// Repaired counts repaired damage: adopted orphan bits, dropped
	// residual stamps, purged phantom cache entries, re-seized quarantine
	// bits.
	Repaired int
	// Quarantined counts names newly withdrawn from circulation this pass.
	Quarantined int
	// Unrepaired counts violations detected but not contained; the arena's
	// Health is Failed while any stand.
	Unrepaired int
}

// Scrub runs one integrity pass over the arena: every name is checked
// against the conservation invariant (free, parked, or granted — never two
// at once), repairable damage is repaired, and — with
// IntegrityConfig.Quarantine — irreparably damaged bitmap words are
// withdrawn from circulation. Safe at any time, from any goroutine,
// concurrently with churn, the reaper, and other scrubs. With Integrity
// off (or after Close) it does nothing and returns a zero result.
func (a *Arena) Scrub() ScrubResult {
	if a.scrubber == nil || a.closed.Load() {
		return ScrubResult{}
	}
	p := a.proc()
	res := a.scrubber.Scrub(p)
	a.procs.Put(p)
	return ScrubResult(res)
}

// Close releases the arena's background resources: it flushes any
// word-block lease caches (parked names return to the pool), stops the
// lease reaper (waiting out an in-flight sweep) and, for mmap-backed arenas,
// detaches from the namespace file — held names stay claimed in the file
// and are recovered by surviving processes' sweeps once their leases
// lapse. Close is idempotent; an arena without background resources
// closes trivially. After Close, Acquire, AcquireN, Release, and
// ReleaseAll return an error wrapping ErrClosed, and Heartbeat and
// SweepStale report zero work.
func (a *Arena) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	if a.cache != nil {
		// Return every parked name to the backend so nothing dangles as a
		// claimed-but-unheld lease after an orderly shutdown.
		p := a.proc()
		a.cache.Flush(p)
		a.procs.Put(p)
	}
	if a.stopReaper != nil {
		a.stopReaper()
	}
	if a.stopScrub != nil {
		a.stopScrub()
	}
	if a.closer != nil {
		return a.closer()
	}
	return nil
}
