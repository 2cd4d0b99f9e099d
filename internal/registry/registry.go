// Package registry is the backend registry of the long-lived renaming
// arenas: every arena implementation self-registers at init time with its
// report name, a constructor from one common Config, and a set of
// capability flags, so that experiments, storms, and the cross-backend
// conformance suite (package conformance) enumerate all implementations
// instead of hand-wiring private backend lists. Adding a backend means
// adding one register file to its package and listing it in
// internal/registry/all — no experiment or test file changes.
//
// The package is a leaf: it owns the Arena interface (package longlived
// aliases it, so existing code is unaffected) and imports only the shm
// kernel, which lets every backend package import the registry without
// cycles.
package registry

import (
	"fmt"
	"sort"

	"shmrename/internal/shm"
)

// Arena is a long-lived renaming arena. All methods taking a *shm.Proc
// perform step-counted shared-memory operations and are safe for concurrent
// use by distinct procs. Package longlived aliases this type, so
// longlived.Arena and registry.Arena are the same interface.
type Arena interface {
	// Label names the backend for reports.
	Label() string
	// Capacity is the maximum number of concurrent holders the arena
	// guarantees to serve (acquires beyond it may report full).
	Capacity() int
	// NameBound bounds issued names: they lie in [0, NameBound).
	NameBound() int
	// Acquire claims a name unique among current holders, or returns -1
	// after MaxPasses full passes found no free slot (arena full).
	Acquire(p *shm.Proc) int
	// AcquireN claims up to k names unique among current holders, appending
	// them to out and returning the extended slice. It stops short of k only
	// after MaxPasses full passes left the remainder unserved (arena full);
	// backends with word-granular storage batch the claims — up to 64 names
	// per shared-memory step — instead of running k independent searches.
	AcquireN(p *shm.Proc, k int, out []int) []int
	// Release returns a name acquired earlier. Only the current holder may
	// release it.
	Release(p *shm.Proc, name int)
	// ReleaseN returns a batch of names acquired earlier. Backends with
	// word-granular storage coalesce names sharing a bitmap word into one
	// clearing step. The slice is not retained.
	ReleaseN(p *shm.Proc, names []int)
	// Touch reads the register backing a held name (one step): the
	// stand-in for work a client does against its name while holding it.
	Touch(p *shm.Proc, name int)
	// IsHeld reports whether the name is currently held, without spending
	// a step (diagnostics and release validation).
	IsHeld(name int) bool
	// Held counts currently held names, without spending steps.
	Held() int
	// Probeables exposes the arena's shared structures to adaptive
	// adversary policies, keyed by operation-space label.
	Probeables() map[string]shm.Probeable
	// Clock returns the per-step hardware hook for externally clocked
	// simulated runs, or nil.
	Clock() func()
}

// Elastic is the optional interface of arenas whose resident level ladder
// tracks load at runtime (Caps.Elastic backends, the sharded frontend over
// elastic sub-arenas, and caching layers above either). Fixed-capacity
// wrappers may also implement it by delegation, reporting constant values.
type Elastic interface {
	// CapacityNow is the instantaneous claimable capacity: the summed sizes
	// of the active (non-draining) levels. It moves between the configured
	// minimum and Capacity as the arena grows and shrinks.
	CapacityNow() int
	// PeakCapacity is the high-water mark of CapacityNow over the arena's
	// lifetime.
	PeakCapacity() int
	// Grow force-appends the next geometric level (or cancels an in-flight
	// drain), reporting whether the ladder changed. Acquire paths call the
	// same transition on demand; tests and benchmarks force it.
	Grow() bool
	// Shrink force-initiates (and, when the top level is already empty,
	// completes) a drain of the top active level, reporting whether a level
	// was retired. It never reclaims a held name: a drain with live holders
	// stays pending until they release.
	Shrink() bool
}

// BlockAcquirer is the optional interface of arenas that can lease a block
// of names first-fit. Caching layers refill through it: refills are rare,
// so unlike client acquires — whose placement is randomized to spread
// contention — they can afford the lowest free names, which keeps parked
// blocks and the holders they serve at the bottom of the name space.
type BlockAcquirer interface {
	// AcquireBlock claims up to k names unique among current holders with
	// one bounded first-fit sweep — lowest stripe, level and word with room
	// first, skipping stripes, levels and words hinted full at no step cost
	// — and appends them to out. It never retries: it may return fewer than
	// k names, or none, while free names remain (a stale hint, a lost race),
	// so callers fall back to Acquire for the termination guarantee.
	AcquireBlock(p *shm.Proc, k int, out []int) []int
}

// Footprint is the optional interface of arenas that can report their
// shared-state storage — bitmap words, saturation hints, and lease stamps
// — allocated so far. Name spaces and stamp pages become resident on first
// claim, so a fixed ladder reports the levels its holders have reached and
// an elastic one its resident levels: the resident-bytes proxy behind the
// proportional-memory claims.
type Footprint interface {
	// ResidentBytes is the arena's shared-state storage allocated so far,
	// in bytes.
	ResidentBytes() int64
}

// Drainer is the optional interface of elastic arenas consulted by caching
// layers: a released name in a draining level must flow back to the pool
// instead of being parked, or the parked claim would pin the drain forever.
type Drainer interface {
	// Draining reports whether name lies in a level being drained for
	// retirement (no step cost; a racy snapshot is fine — a stale false
	// merely delays the drain until the cache recirculates the name).
	Draining(name int) bool
}

// Flusher is implemented by caching layers (the word-block lease cache)
// whose Release parks names locally instead of returning them to the pool:
// Flush returns every parked name, so drain checks and conformance laws can
// restore pool wholeness before asserting Held() == 0 accounts for
// everything.
type Flusher interface {
	// Flush returns all parked names to the backend and reports how many.
	Flush(p *shm.Proc) int
}

// Caps are the capability flags of a registered backend. The conformance
// suite gates its laws on them: a law only runs against backends that claim
// the capability it exercises, so one suite covers heterogeneous backends
// without special-casing names. Every backend recycles released names
// indefinitely and serves whatever proc IDs its callers mint (the public
// arena pools procs with unbounded IDs); only what varies is a flag.
type Caps struct {
	// Batch backends serve AcquireN/ReleaseN word-granularly — up to 64
	// names per shared-memory step — instead of looping single operations.
	Batch bool
	// Leasable backends accept Config.Epochs and then implement
	// longlived.Recoverable: every claim carries a holder/epoch stamp and a
	// recovery sweep can reclaim a dead holder's names.
	Leasable bool
	// Sharded backends stripe the name space across independent sub-arenas.
	Sharded bool
	// WordScan backends search free slots with the word-granular claim
	// engine (one snapshot-scan-CAS per 64-name bitmap word).
	WordScan bool
	// Deterministic backends replay bit-identically under the simulated
	// scheduler: same seed, same schedule, same grant sequence and step
	// counts. Gates the fingerprint and adversary-churn laws, and selects
	// the backends the simulated E15 churn experiment sweeps.
	Deterministic bool
	// External backends are backed by OS state (an mmap-backed file): they
	// run natively only, construct real resources per instance, and are
	// excluded from simulated experiments and from public NewArena lookup
	// (OpenArena is their surface).
	External bool
	// Cached backends are caching layers whose Release parks names locally
	// (registry.Flusher): parked names are claimed in the pool but held by
	// nobody, their recovery unit is the whole handle rather than one proc,
	// and Acquire may report full while parked names exist elsewhere.
	Cached bool
	// LeaksOnCrash backends have documented crash windows that leak side
	// capacity names alone cannot restore (the τ arena's counting-device
	// bits); fault-injection laws discount the leak instead of failing.
	LeaksOnCrash bool
	// Elastic backends size their resident level ladder to the current
	// contention: levels are appended under load and drained/retired when
	// occupancy falls, between Config.Elastic.MinCapacity and Capacity.
	// They implement the registry Elastic interface; the conformance suite
	// gates its resize laws (grow-then-fill uniqueness, shrink-never-
	// reclaims-held, storm-under-forced-resizes) on this flag.
	Elastic bool
	// SelfHealing backends expose maintenance-side bit seizure
	// (longlived.LeaseDomain.Seize) alongside their lease stamps, so the
	// integrity scrubber can quarantine irreparably damaged bitmap words —
	// withdraw them from circulation — instead of merely reporting them.
	// Backends whose claim bits carry side state the scrubber cannot also
	// take (the τ arena's counting devices, the elastic ladder's drain
	// accounting) are scrub-checkable but not self-healing. Gates the
	// conformance quarantine law.
	SelfHealing bool
}

// Config is the common construction surface every registered backend
// accepts. Fields a backend has no use for are ignored; zero values select
// the backend's canonical defaults, so Config{Capacity: n} is always valid.
type Config struct {
	// Capacity is the number of concurrent holders the arena guarantees to
	// serve (required, >= 1).
	Capacity int
	// MaxPasses bounds full acquire passes before the backend reports the
	// arena full; 0 selects the backend default (unlimited for in-process
	// backends — simulated runs rely on the scheduler's step budget).
	MaxPasses int
	// Epochs, when non-nil, enables the crash-recovery lease layer on
	// Leasable backends (see longlived.LeaseOpts). External backends are
	// always lease-stamped and use it as their clock override.
	Epochs shm.EpochSource
	// Holder, when non-zero, stamps every claim with this single holder
	// identity instead of the backend default (per-proc identities for
	// in-process backends, the process ID for external ones). Cached
	// backends pin one holder for the whole handle when it is 0: a name
	// parked by one proc's slot may be released by another proc, which a
	// per-proc stamp would refuse.
	Holder uint64
	// Alive overrides the liveness oracle of external backends' on-open
	// recovery sweeps; in-process backends ignore it (their sweeps are
	// driven by recovery.Sweeper, which takes its own oracle).
	Alive func(holder uint64) bool
	// Label prefixes the backend's operation-space labels; "" selects the
	// backend default. Conformance instances use distinct labels so interned
	// operation spaces never collide across subtests.
	Label string
	// Scan overrides the free-slot scan engine on backends that implement
	// both: "bit" forces the per-TAS probe path, "word" the word-granular
	// claim engine, "" the backend's canonical default (the one its
	// registered Caps.WordScan flag describes). Backends with a single
	// engine ignore it. The word-vs-bit experiment sweeps this dimension
	// across registry backends instead of hand-wiring twin constructors.
	Scan string
	// Padded, when true, pads shared words to cache-line stride on backends
	// that support it (native multicore runs); simulated runs leave it
	// false, and so get packed storage. The sharded frontend forwards it to
	// every stripe. Caching backends (Caps.Cached) ignore it and build their
	// backend packed: the cache reaches it only for whole-block refills and
	// spills, too rarely for false sharing to cost what padding does.
	Padded bool
	// Shards overrides the stripe count of sharded frontends; 0 selects the
	// backend default. Unsharded backends ignore it.
	Shards int
	// Elastic overrides the resize thresholds of elastic backends (zero
	// fields select the backend defaults), and makes sharded backends
	// stripe elastic sub-arenas; other backends ignore it. The ladder
	// maximum is always Capacity — the capacity guarantee is reached
	// through growth.
	Elastic *ElasticParams
}

// ElasticParams are the resize knobs of elastic backends (see
// Config.Elastic). All fields are optional; zero selects the default.
type ElasticParams struct {
	// MinCapacity floors the resident ladder: the arena never shrinks below
	// the level prefix covering it. Default 64 (one bitmap word), clamped
	// to Capacity.
	MinCapacity int
	// GrowAt is the occupancy fraction of the current ladder at which a
	// successful acquire proactively appends the next level, in (0, 1).
	// Default 0.75. (A failed full pass grows unconditionally.)
	GrowAt float64
	// ShrinkAt is the occupancy hysteresis for draining the top level:
	// shrinking becomes eligible while occupancy stays at or below
	// ShrinkAt x (capacity without the top level), in [0, GrowAt).
	// Default 0.25.
	ShrinkAt float64
	// ShrinkAfter is the number of consecutive shrink-eligible release
	// observations before a drain actually starts — the debounce that keeps
	// a diurnal trough from thrashing the ladder. Default 128.
	ShrinkAfter int
}

// Backend is one registered arena implementation.
type Backend struct {
	// Name is the unique report name ("level-array", "tau-longlived", ...).
	Name string
	// Caps are the backend's capability flags.
	Caps Caps
	// New constructs a fresh arena from the common config. Constructors
	// panic on invalid configuration, exactly like the backends' own New
	// functions.
	New func(cfg Config) Arena
}

// backends is the registration table. Registration happens in package init
// functions (serialized by the runtime); after init the table is read-only.
var backends = map[string]Backend{}

// Register adds a backend to the registry. It panics on a duplicate or
// empty name or a nil constructor — both are programming errors in a
// backend's register file, best caught at init.
func Register(b Backend) {
	if b.Name == "" {
		panic("registry: Register with empty name")
	}
	if b.New == nil {
		panic(fmt.Sprintf("registry: Register(%q) with nil constructor", b.Name))
	}
	if _, dup := backends[b.Name]; dup {
		panic(fmt.Sprintf("registry: backend %q registered twice", b.Name))
	}
	backends[b.Name] = b
}

// All returns every registered backend sorted by name, so enumeration
// order — and therefore experiment-table row order and subtest order — is
// stable regardless of package-initialization order.
func All() []Backend {
	out := make([]Backend, 0, len(backends))
	for _, b := range backends {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Backend, bool) {
	b, ok := backends[name]
	return b, ok
}
