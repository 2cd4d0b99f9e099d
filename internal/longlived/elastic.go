package longlived

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// ElasticArena is the elastic adaptation of the LevelArray ladder: the
// geometry of LevelArena (geometrically growing word-packed TAS bitmaps,
// level 0 smallest, a capacity-sized final backstop) with the resident
// prefix of the ladder sized to the *current* contention instead of the
// provisioned maximum. Levels are appended under load and drained/retired
// when occupancy falls, without ever stopping concurrent acquires — the
// resident bitmap+stamp bytes and the probe range both track live holders,
// the adaptive-space property argued by "Space Bounds for Adaptive
// Renaming" (arXiv:1603.04067) on top of the LevelArray's adaptive-work
// property (arXiv:1405.5461).
//
// # Publication protocol
//
// The full ladder shape (level sizes, name bases, NameBound) is fixed at
// construction; only which prefix is resident changes. The resident prefix
// is published through one atomic word packing (generation, activeLevels):
// acquirers read it, probe the active levels, and revalidate. Each level
// slot holds an atomic pointer to a level object carrying its own state
// flag (active → draining → retired), so a claim always revalidates
// against the exact object it claimed in — a slot retired and regrown
// between claim and revalidation cannot be confused with its predecessor.
//
//   - Grow: build the next geometric level off to the side (its bitmap and
//     stamp pages become resident on its first claim), store its pointer,
//     then publish the new (gen+1, act+1) word with one atomic store.
//     Acquirers that read the old word merely probe one level fewer for
//     one pass.
//   - Shrink: mark the top level draining (claims revalidate and bounce;
//     the word-saturation hints are force-set so word probes skip it at
//     zero step cost), then wait for a clean occupancy scan. Under Go's
//     sequentially-consistent atomics any claim CAS the scan did not
//     observe must itself observe the draining flag afterwards and
//     self-release, so a clean scan proves no name can ever again be
//     granted from the level; only then is it retired and unpublished.
//     A drain never reclaims a held name: live holders keep the drain
//     pending (and a grow cancels it) until they release.
//
// # Resize triggers
//
// An exact live-holder counter drives both directions without wall
// clocks: a successful acquire grows proactively once occupancy reaches
// GrowAt x CapacityNow (and a failed full pass grows unconditionally — the
// ErrArenaFull signal); releases arm a shrink after ShrinkAfter
// consecutive observations at or below ShrinkAt x (capacity without the
// top level), the hysteresis that keeps a diurnal trough from thrashing
// the ladder.
type ElasticArena struct {
	cfg       ElasticConfig
	sizes     []int // full ladder shape, fixed at construction
	base      []int // base[i] = first global name of level i
	bound     int   // full-ladder name bound (constant)
	cap       int   // maximum capacity (the guarantee, reached by growth)
	minLevels int   // resident floor: the prefix covering MinCapacity

	levels []atomic.Pointer[elLevel]
	// ladder packs (generation << 16 | activeLevels): the epoch/seqlock
	// word acquirers read before probing. Structural transitions are
	// serialized by resizeBusy, so writers store; readers only load.
	ladder atomic.Uint64
	// occ is the live-holder counter driving the resize triggers: +1 per
	// granted name, -1 per released or reclaimed one.
	occ atomic.Int64
	// floor hints the lowest level likely to have free slots: raised to
	// the level of the last successful claim, dropped by releases below
	// it. Probes start there instead of wading through saturated low
	// levels; the deterministic backstop ignores it.
	floor atomic.Int32
	// drainIdx is the index of the level currently draining, -1 if none.
	drainIdx atomic.Int32
	// resizeBusy serializes grow/start-drain/finish-drain transitions.
	// Releases and successful acquires never wait on it; only an acquire
	// whose pass failed on a structurally full ladder does (see regrow).
	resizeBusy atomic.Bool
	// Cached trigger thresholds, retuned on every ladder change.
	capNow     atomic.Int64
	peakCap    atomic.Int64
	growTrip   atomic.Int64
	shrinkTrip atomic.Int64
	// shrinkScore counts consecutive shrink-eligible release observations;
	// drainTick throttles finish-drain attempts from unrelated releases.
	shrinkScore atomic.Int64
	drainTick   atomic.Int64
	// Transition counters (diagnostics).
	grows, shrinks, cancels atomic.Int64
}

// Level object states. The zero value is active so a freshly installed
// level serves claims immediately.
const (
	elActive uint32 = iota
	elDraining
	elRetired
)

// elLevel is one resident level: its bitmap space, its own lease-stamp
// array (stamps follow levels — a retired level's stamps are dropped with
// it), and the state flag claims revalidate against.
type elLevel struct {
	space  *shm.NameSpace
	stamps *shm.Stamps
	idx    int
	base   int
	size   int
	state  atomic.Uint32
}

// ElasticConfig parameterizes an ElasticArena. The scan/lease knobs mirror
// LevelConfig; the resize knobs mirror registry.ElasticParams.
type ElasticConfig struct {
	// MinCapacity floors the resident ladder: the arena never drains below
	// the level prefix covering it. Default the smallest level (64 names),
	// clamped to the capacity.
	MinCapacity int
	// GrowAt is the occupancy fraction of CapacityNow at which a
	// successful acquire proactively appends the next level, in (0, 1).
	// Default 0.75.
	GrowAt float64
	// ShrinkAt is the occupancy hysteresis for draining the top level, as
	// a fraction of the capacity without that level, in [0, GrowAt).
	// Default 0.25.
	ShrinkAt float64
	// ShrinkAfter is the number of consecutive shrink-eligible release
	// observations before a drain starts. Default 128.
	ShrinkAfter int
	// MaxPasses bounds full Acquire passes before reporting the arena
	// full; ladder-extending retries do not consume a pass. 0 means
	// unlimited.
	MaxPasses int
	// WordScan enables the word-granular claim engine (see
	// LevelConfig.WordScan).
	WordScan bool
	// Padded line-aligns each level's bitmap: packed words rounded up to
	// whole 64-byte cache lines (native runs).
	Padded bool
	// Lease enables the crash-recovery stamp layer. Each level owns its
	// stamp array, created and retired with the level; LeaseDomains
	// re-enumerates the resident levels on every call, which is exactly
	// how recovery.Sweeper consumes it.
	Lease *LeaseOpts
	// Label prefixes the operation-space labels. Default "elastic". Labels
	// are per ladder slot, not per incarnation, so a regrown level reuses
	// its predecessor's interned operation space.
	Label string
}

func (c *ElasticConfig) fill() {
	if c.GrowAt == 0 {
		c.GrowAt = 0.75
	}
	if c.ShrinkAt == 0 {
		c.ShrinkAt = 0.25
	}
	if c.ShrinkAfter <= 0 {
		c.ShrinkAfter = 128
	}
	if c.Label == "" {
		c.Label = "elastic"
	}
}

var _ Arena = (*ElasticArena)(nil)
var _ Recoverable = (*ElasticArena)(nil)
var _ registry.BlockAcquirer = (*ElasticArena)(nil)

// NewElastic builds an elastic level arena whose ladder can grow to serve
// capacity concurrent holders and drains back toward cfg.MinCapacity when
// contention falls. The full ladder shape equals NewLevel's for the same
// capacity, so NameBound (and the sharded frontend's equal-stride
// invariant) are identical to the fixed arena's.
func NewElastic(capacity int, cfg ElasticConfig) *ElasticArena {
	if capacity < 1 {
		panic("longlived: capacity must be >= 1")
	}
	cfg.fill()
	if cfg.GrowAt <= 0 || cfg.GrowAt >= 1 {
		panic(fmt.Sprintf("longlived: ElasticConfig.GrowAt must lie in (0, 1), got %v", cfg.GrowAt))
	}
	if cfg.ShrinkAt < 0 || cfg.ShrinkAt >= cfg.GrowAt {
		panic(fmt.Sprintf("longlived: ElasticConfig.ShrinkAt must lie in [0, GrowAt=%v), got %v", cfg.GrowAt, cfg.ShrinkAt))
	}
	if cfg.MinCapacity < 0 {
		panic(fmt.Sprintf("longlived: ElasticConfig.MinCapacity must be >= 0, got %d", cfg.MinCapacity))
	}
	a := &ElasticArena{cfg: cfg, cap: capacity}
	for size := levelBase; size < capacity; size *= 2 {
		a.sizes = append(a.sizes, size)
		a.base = append(a.base, a.bound)
		a.bound += size
	}
	a.sizes = append(a.sizes, capacity)
	a.base = append(a.base, a.bound)
	a.bound += capacity
	a.levels = make([]atomic.Pointer[elLevel], len(a.sizes))
	minCap := cfg.MinCapacity
	if minCap == 0 {
		minCap = levelBase
	}
	if minCap > capacity {
		minCap = capacity
	}
	a.minLevels = 1
	for sum := a.sizes[0]; a.minLevels < len(a.sizes) && sum < minCap; a.minLevels++ {
		sum += a.sizes[a.minLevels]
	}
	for li := 0; li < a.minLevels; li++ {
		a.installLevel(li)
	}
	a.drainIdx.Store(-1)
	a.ladder.Store(packLadder(0, a.minLevels))
	a.retune()
	return a
}

// packLadder packs the publication word: generation above, active level
// count in the low 16 bits (the ladder has at most ~35 levels).
func packLadder(gen uint64, act int) uint64 { return gen<<16 | uint64(act) }

// activeLevels reads the published probe range.
func (a *ElasticArena) activeLevels() int { return int(a.ladder.Load() & 0xffff) }

// Generation reads the published resize generation (diagnostics, tests).
func (a *ElasticArena) Generation() uint64 { return a.ladder.Load() >> 16 }

// bumpGen republishes the ladder word with the generation advanced and the
// level count unchanged (drain start/cancel). Caller holds resizeBusy.
func (a *ElasticArena) bumpGen() {
	st := a.ladder.Load()
	a.ladder.Store(packLadder((st>>16)+1, int(st&0xffff)))
}

// installLevel allocates and publishes the level object for slot li.
// Caller holds resizeBusy (or is the constructor).
func (a *ElasticArena) installLevel(li int) {
	mk := shm.NewNameSpace
	if a.cfg.Padded {
		mk = shm.NewNameSpacePadded
	}
	label := fmt.Sprintf("%s:L%d", a.cfg.Label, li)
	lvl := &elLevel{
		space: mk(label, a.sizes[li]),
		idx:   li,
		base:  a.base[li],
		size:  a.sizes[li],
	}
	if a.cfg.Lease.enabled() {
		lvl.stamps = a.cfg.Lease.newStamps(label+":lease", lvl.space)
	}
	a.levels[li].Store(lvl)
}

// retune recomputes the cached capacity and trigger thresholds after a
// ladder transition. Caller holds resizeBusy (or is the constructor).
func (a *ElasticArena) retune() {
	act := a.activeLevels()
	di := int(a.drainIdx.Load())
	cap := 0
	topActive := -1
	for li := 0; li < act; li++ {
		if li == di {
			continue
		}
		cap += a.sizes[li]
		topActive = li
	}
	a.capNow.Store(int64(cap))
	if int64(cap) > a.peakCap.Load() {
		a.peakCap.Store(int64(cap))
	}
	if act >= len(a.levels) && di < 0 {
		a.growTrip.Store(math.MaxInt64)
	} else {
		a.growTrip.Store(int64(a.cfg.GrowAt * float64(cap)))
	}
	if di >= 0 || act <= a.minLevels || topActive < 0 {
		a.shrinkTrip.Store(-1)
	} else {
		a.shrinkTrip.Store(int64(a.cfg.ShrinkAt * float64(cap-a.sizes[topActive])))
	}
}

// Label implements Arena.
func (a *ElasticArena) Label() string {
	scan := "bit"
	if a.cfg.WordScan {
		scan = "word"
	}
	return fmt.Sprintf("elastic-level(levels=%d/%d,probes=%d,scan=%s)",
		a.activeLevels(), len(a.levels), levelProbes, scan)
}

// Capacity implements Arena: the guarantee, reached through growth.
func (a *ElasticArena) Capacity() int { return a.cap }

// NameBound implements Arena: the full-ladder bound, identical to the
// fixed LevelArena's for the same capacity, constant across resizes.
func (a *ElasticArena) NameBound() int { return a.bound }

// Levels returns (resident, maximum) level counts (diagnostics).
func (a *ElasticArena) Levels() (active, max int) { return a.activeLevels(), len(a.levels) }

// CapacityNow implements registry.Elastic: the summed sizes of the active
// non-draining levels.
func (a *ElasticArena) CapacityNow() int { return int(a.capNow.Load()) }

// PeakCapacity implements registry.Elastic.
func (a *ElasticArena) PeakCapacity() int { return int(a.peakCap.Load()) }

// ResidentBytes implements registry.Footprint: the storage the resident
// levels have allocated so far — saturation hints (and per-name stamp page
// tables) from their grow, bitmaps with their word records (or per-name
// stamp pages) from their first claims — summed at call time, so a
// retired level's records leave with its bitmap.
func (a *ElasticArena) ResidentBytes() int64 {
	var b int64
	for li := range a.levels {
		if lvl := a.levels[li].Load(); lvl != nil {
			b += int64(lvl.space.FootprintBytes())
			if lvl.stamps != nil {
				b += lvl.stamps.ResidentBytes()
			}
		}
	}
	return b
}

// Resizes returns the cumulative (grows, shrinks, drain-cancels) counters
// (diagnostics and tests).
func (a *ElasticArena) Resizes() (grows, shrinks, cancels int64) {
	return a.grows.Load(), a.shrinks.Load(), a.cancels.Load()
}

// Leased reports whether the crash-recovery lease layer is on.
func (a *ElasticArena) Leased() bool { return a.cfg.Lease.enabled() }

// leaseStamp mirrors LevelArena.leaseStamp.
func (a *ElasticArena) leaseStamp(p *shm.Proc) uint64 {
	if !a.cfg.Lease.enabled() {
		return 0
	}
	return a.cfg.Lease.stamp(p)
}

// Grow implements registry.Elastic: append the next geometric level, or —
// when a drain is pending — cancel it (demand has returned; the draining
// level reopens before any allocation happens). It reports whether the
// ladder changed. Acquire calls it on every failed full pass and
// proactively at the GrowAt occupancy trip; tests and benchmarks force it.
func (a *ElasticArena) Grow() bool {
	changed, _ := a.grow()
	return changed
}

// grow is Grow that also reports whether it gave up because another
// transition held the resize guard. It takes no process step, so under the
// simulated gate no resize is ever in flight when another process runs and
// busy is never observed there.
func (a *ElasticArena) grow() (changed, busy bool) {
	if !a.resizeBusy.CompareAndSwap(false, true) {
		return false, true
	}
	defer a.resizeBusy.Store(false)
	if di := a.drainIdx.Load(); di >= 0 {
		lvl := a.levels[di].Load()
		lvl.state.Store(elActive)
		// Reopen the force-saturated probe hints; stale clears are
		// advisory-safe (a probe re-marks a genuinely full word).
		lvl.space.DesaturateAll()
		a.drainIdx.Store(-1)
		a.cancels.Add(1)
		a.bumpGen()
		a.retune()
		return true, false
	}
	st := a.ladder.Load()
	act := int(st & 0xffff)
	if act >= len(a.levels) {
		return false, false
	}
	a.installLevel(act)
	a.ladder.Store(packLadder((st>>16)+1, act+1))
	a.grows.Add(1)
	a.retune()
	return true, false
}

// regrow is the failed-pass grow: it extends the ladder like Grow, but when
// another goroutine's transition holds the resize guard it waits for that
// transition to finish (most often it is the very grow this pass needed)
// and reports true, so the caller retries without consuming a pass. Without
// the wait, a pass that merely lost the guard race counts as failed, and
// enough of them surface ErrArenaFull on a mostly empty arena. The caller's
// regrown budget bounds the retries; the proactive GrowAt trigger never
// waits.
func (a *ElasticArena) regrow() bool {
	changed, busy := a.grow()
	if !busy {
		return changed
	}
	for a.resizeBusy.Load() {
		runtime.Gosched()
	}
	return true
}

// Shrink implements registry.Elastic: initiate a drain of the top level if
// none is pending, then attempt to complete whichever drain is pending. It
// reports whether a level was actually retired — false while live holders
// (or parked cache blocks) keep the draining level occupied.
func (a *ElasticArena) Shrink() bool {
	a.startDrain(true)
	return a.finishDrain()
}

// startDrain marks the top level draining. When forced is false the
// occupancy hysteresis is re-checked under the resize guard (the trigger
// path); Shrink forces it regardless of occupancy.
func (a *ElasticArena) startDrain(forced bool) {
	if !a.resizeBusy.CompareAndSwap(false, true) {
		return
	}
	defer a.resizeBusy.Store(false)
	a.shrinkScore.Store(0)
	if a.drainIdx.Load() >= 0 {
		return
	}
	act := a.activeLevels()
	if act <= a.minLevels {
		return
	}
	if !forced {
		trip := a.shrinkTrip.Load()
		if trip < 0 || a.occ.Load() > trip {
			return
		}
	}
	top := a.levels[act-1].Load()
	top.state.Store(elDraining)
	// Force the saturation summary so word probes skip the level at zero
	// step cost; stragglers already past the state check revalidate and
	// self-release (see the publication-protocol comment above).
	top.space.SaturateAll()
	a.drainIdx.Store(int32(act - 1))
	a.bumpGen()
	a.retune()
}

// finishDrain retires the draining level once a full occupancy scan comes
// back clean, republishing the shorter ladder. It reports whether a level
// was retired.
func (a *ElasticArena) finishDrain() bool {
	if !a.resizeBusy.CompareAndSwap(false, true) {
		return false
	}
	defer a.resizeBusy.Store(false)
	di := a.drainIdx.Load()
	if di < 0 {
		return false
	}
	lvl := a.levels[di].Load()
	// The clean-scan proof: state was stored draining before this scan, so
	// a claim CAS the scan misses must itself load the draining state and
	// self-release — after one clean pass no name can ever be granted from
	// the level again, and nobody holds one (held bits would show here).
	if lvl.space.CountClaimed() != 0 {
		return false
	}
	lvl.state.Store(elRetired)
	st := a.ladder.Load()
	act := int(st & 0xffff)
	a.ladder.Store(packLadder((st>>16)+1, act-1))
	a.levels[di].Store(nil)
	a.drainIdx.Store(-1)
	a.shrinks.Add(1)
	a.retune()
	return true
}

// Draining implements registry.Drainer: caching layers must not park a
// released name of a draining level (the parked claim would pin the drain).
func (a *ElasticArena) Draining(name int) bool {
	li, _ := a.locate(name)
	lvl := a.levels[li].Load()
	return lvl != nil && lvl.state.Load() != elActive
}

// noteAcquired records k granted names in lvl and runs the grow trigger.
// An acquire resets the shrink hysteresis only when it lands above the
// shrink trip: that occupancy is contention evidence against retiring the
// top level, while steady low-k churn — acquires included — is exactly the
// regime a shrink is for and must not keep vetoing it.
func (a *ElasticArena) noteAcquired(lvl *elLevel, k int) {
	occ := a.occ.Add(int64(k))
	if occ > a.shrinkTrip.Load() && a.shrinkScore.Load() != 0 {
		a.shrinkScore.Store(0)
	}
	if f := a.floor.Load(); f != int32(lvl.idx) {
		a.floor.Store(int32(lvl.idx))
	}
	if occ >= a.growTrip.Load() {
		a.Grow()
	}
}

// noteReleased records k released (or reclaimed) names in lvl and runs the
// shrink trigger: releases into a draining level (and a throttled sample of
// the others) attempt to complete the pending drain, and sustained low
// occupancy arms a new one.
func (a *ElasticArena) noteReleased(lvl *elLevel, k int) {
	occ := a.occ.Add(int64(-k))
	if f := a.floor.Load(); int32(lvl.idx) < f {
		a.floor.Store(int32(lvl.idx))
	}
	if di := a.drainIdx.Load(); di >= 0 {
		if int32(lvl.idx) == di || a.drainTick.Add(1)&15 == 0 {
			a.finishDrain()
		}
		return
	}
	if trip := a.shrinkTrip.Load(); trip >= 0 && occ <= trip {
		if a.shrinkScore.Add(1) >= int64(a.cfg.ShrinkAfter) {
			a.startDrain(false)
			a.finishDrain()
		}
	}
}

// unclaim hands a just-claimed slot straight back — the self-release of a
// claim that lost the revalidation race against a drain.
func (a *ElasticArena) unclaim(p *shm.Proc, lvl *elLevel, i int) {
	if lvl.stamps != nil {
		lvl.space.FreeStamped(p, i, a.cfg.Lease.holder(p))
		return
	}
	lvl.space.Free(p, i)
}

// granted revalidates a claim against the level state: a claim in a level
// that began draining self-releases and reports false, so the drain's
// clean-scan proof holds. On success it returns the global name.
func (a *ElasticArena) granted(p *shm.Proc, lvl *elLevel, i int) (int, bool) {
	if lvl.state.Load() != elActive {
		a.unclaim(p, lvl, i)
		return -1, false
	}
	a.noteAcquired(lvl, 1)
	return lvl.base + i, true
}

// claim is TryClaim or its stamped variant.
func claim(p *shm.Proc, s *shm.NameSpace, i int, stamp uint64) bool {
	if stamp == 0 {
		return s.TryClaim(p, i)
	}
	return s.TryClaimStamped(p, i, stamp)
}

// claimWord is ClaimFirstFree or its stamped variant.
func claimWord(p *shm.Proc, s *shm.NameSpace, w int, stamp uint64) int {
	if stamp == 0 {
		return s.ClaimFirstFree(p, w)
	}
	return s.ClaimFirstFreeStamped(p, w, stamp)
}

// claimUpTo is ClaimUpTo or its stamped variant.
func claimUpTo(p *shm.Proc, s *shm.NameSpace, w, k int, stamp uint64) uint64 {
	if stamp == 0 {
		return s.ClaimUpTo(p, w, k)
	}
	return s.ClaimUpToStamped(p, w, k, stamp)
}

// Acquire implements Arena: read the ladder word, probe the active levels
// from the floor hint (with WordScan, first fit until a claim comes back
// empty or bounces off a draining level, then the 4-word window, as in
// LevelArena.acquireWord), then a deterministic bottom-up backstop scan over
// every active level (the termination guarantee — when the ladder is fully
// grown its final level alone seats the full capacity). A failed full pass
// extends the ladder (or cancels a pending drain, or waits out another
// goroutine's transition; see regrow) and retries without consuming a
// pass; the ladder can only change a bounded number of times, so MaxPasses
// still bounds the call.
func (a *ElasticArena) Acquire(p *shm.Proc) int {
	stamp := a.leaseStamp(p)
	r := p.Rand()
	wide := p.LostClaim()
	p.SetLostClaim(false)
	regrown := 0
	for pass := 0; a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses; {
		act := a.activeLevels()
		floor := int(a.floor.Load())
		if floor >= act || floor < 0 {
			floor = 0
		}
		for li := floor; li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive {
				continue
			}
			if a.cfg.WordScan {
				if lvl.space.Saturated() {
					continue
				}
				for t := 0; t < levelProbes; t++ {
					w := lvl.space.ProbeWord(r, wide)
					if w < 0 {
						break
					}
					if i := claimWord(p, lvl.space, w, stamp); i >= 0 {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
					wide = true
					p.SetLostClaim(true)
				}
			} else {
				for t := 0; t < levelProbes; t++ {
					i := r.Intn(lvl.size)
					if claim(p, lvl.space, i, stamp) {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
				}
			}
		}
		// Deterministic backstop: every active level, bottom-up (tighter
		// names than a top-only scan, and correct at any ladder height).
		for li := 0; li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive {
				continue
			}
			if a.cfg.WordScan {
				for w := 0; w < lvl.space.Words(); w++ {
					if i := claimWord(p, lvl.space, w, stamp); i >= 0 {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
				}
			} else {
				for i := 0; i < lvl.size; i++ {
					if lvl.space.Claimed(p, i) {
						continue
					}
					if claim(p, lvl.space, i, stamp) {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
				}
			}
		}
		if regrown <= len(a.levels)+1 && a.structFull() && a.regrow() {
			regrown++
			continue
		}
		pass++
	}
	return -1
}

// structFull reports whether a failed pass is structural-fullness evidence
// that warrants extending the ladder (or cancelling a pin by a draining
// level, which structFull skips exactly as the pass did). A pass can also
// fail against a moving target — concurrent churn claiming slots ahead of
// the backstop cursor and freeing them behind it — and that must retry as
// an ordinary pass, not inflate residency: growth stays proportional to
// occupancy, never to scan luck. It reads the bitmaps rather than the occ
// counter: occ can drift under crash recovery (a holder that dies between
// its claim CAS and the occupancy bump is still swept, and the sweep's
// release is counted), and the bitmaps are the ground truth the failed
// pass just scanned anyway.
func (a *ElasticArena) structFull() bool {
	act := a.activeLevels()
	claimed, capacity := 0, 0
	for li := 0; li < act; li++ {
		lvl := a.levels[li].Load()
		if lvl == nil || lvl.state.Load() != elActive {
			continue
		}
		claimed += lvl.space.CountClaimed()
		capacity += lvl.size
	}
	return claimed >= capacity
}

// grantMask revalidates a whole claimed word mask: a drain racing the
// claim bounces the entire mask back (FreeMask semantics), otherwise the
// names are granted and appended.
func (a *ElasticArena) grantMask(p *shm.Proc, lvl *elLevel, w int, won uint64, out []int, k int) ([]int, int) {
	if won == 0 {
		return out, k
	}
	if lvl.state.Load() != elActive {
		if lvl.stamps != nil {
			lvl.space.FreeMaskStamped(p, w, won, a.cfg.Lease.holder(p))
		} else {
			lvl.space.FreeMask(p, w, won)
		}
		return out, k
	}
	pre := len(out)
	out, k = appendMask(out, lvl.base+w<<6, won, k)
	a.noteAcquired(lvl, len(out)-pre)
	return out, k
}

// AcquireN implements Arena. With WordScan the batch walks the active
// ladder claiming up to 64 names per step (each claimed mask revalidated
// against the level state as one unit), its probes first fit until one
// wins nothing, as in Acquire; without it the batch degenerates to k
// independent Acquires, exactly like the fixed arena.
func (a *ElasticArena) AcquireN(p *shm.Proc, k int, out []int) []int {
	if !a.cfg.WordScan {
		for ; k > 0; k-- {
			n := a.Acquire(p)
			if n < 0 {
				break
			}
			out = append(out, n)
		}
		return out
	}
	stamp := a.leaseStamp(p)
	r := p.Rand()
	wide := p.LostClaim()
	p.SetLostClaim(false)
	regrown := 0
	for pass := 0; k > 0 && (a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses); {
		act := a.activeLevels()
		floor := int(a.floor.Load())
		if floor >= act || floor < 0 {
			floor = 0
		}
		for li := floor; k > 0 && li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive || lvl.space.Saturated() {
				continue
			}
			for t := 0; k > 0 && t < levelProbes; t++ {
				w := lvl.space.ProbeWord(r, wide)
				if w < 0 {
					break
				}
				pre := len(out)
				out, k = a.grantMask(p, lvl, w, claimUpTo(p, lvl.space, w, k, stamp), out, k)
				if len(out) == pre { // came back empty or bounced
					wide = true
					p.SetLostClaim(true)
				}
			}
		}
		for li := 0; k > 0 && li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive {
				continue
			}
			for w := 0; k > 0 && w < lvl.space.Words(); w++ {
				out, k = a.grantMask(p, lvl, w, claimUpTo(p, lvl.space, w, k, stamp), out, k)
			}
		}
		if k > 0 {
			if regrown <= len(a.levels)+1 && a.structFull() && a.regrow() {
				regrown++
				continue
			}
			pass++
		}
	}
	return out
}

// AcquireBlock implements registry.BlockAcquirer: one first-fit sweep up
// the active ladder from level 0, claiming up to k of the lowest free names
// with one ClaimUpTo step per word that has room. Non-active levels and
// words hinted full are skipped at no step cost, the latter 64 at a time
// (NameSpace.OpenWords). Each won mask is revalidated as one unit and runs
// the grow trigger (grantMask), as in AcquireN; a short sweep neither
// retries nor grows the ladder on its own — the caller's Acquire fallback
// does.
func (a *ElasticArena) AcquireBlock(p *shm.Proc, k int, out []int) []int {
	stamp := a.leaseStamp(p)
	act := a.activeLevels()
	for li := 0; k > 0 && li < act; li++ {
		lvl := a.levels[li].Load()
		if lvl == nil || lvl.state.Load() != elActive {
			continue
		}
		for i := 0; k > 0 && i<<6 < lvl.space.Words(); i++ {
			for open := lvl.space.OpenWords(i); k > 0 && open != 0; open &= open - 1 {
				w := i<<6 + bits.TrailingZeros64(open)
				out, k = a.grantMask(p, lvl, w, claimUpTo(p, lvl.space, w, k, stamp), out, k)
			}
		}
	}
	return out
}

// locate returns the ladder slot holding the global name and its local
// index; the shape is fixed, so retired slots still locate (to a nil
// level).
func (a *ElasticArena) locate(name int) (int, int) {
	if name < 0 || name >= a.bound {
		panic(fmt.Sprintf("longlived: name %d outside arena bound %d", name, a.bound))
	}
	li := sort.Search(len(a.base), func(i int) bool { return a.base[i] > name }) - 1
	return li, name - a.base[li]
}

// Release implements Arena. A name in a retired slot is by definition not
// held (retirement requires a clean occupancy scan), so the release is a
// no-op there, mirroring NameSpace.Free's release-of-free semantics.
func (a *ElasticArena) Release(p *shm.Proc, name int) {
	li, i := a.locate(name)
	lvl := a.levels[li].Load()
	if lvl == nil {
		return
	}
	if lvl.stamps != nil {
		if !lvl.space.FreeStamped(p, i, a.cfg.Lease.holder(p)) {
			return // reclaimed out from under the holder; occ already adjusted
		}
	} else {
		lvl.space.Free(p, i)
	}
	a.noteReleased(lvl, 1)
}

// ReleaseN implements Arena, coalescing names sharing a bitmap word of a
// level into one clearing step, exactly like the fixed arena.
func (a *ElasticArena) ReleaseN(p *shm.Proc, names []int) {
	switch len(names) {
	case 0:
		return
	case 1:
		a.Release(p, names[0])
		return
	}
	sorted := names
	if !sort.IntsAreSorted(sorted) {
		sorted = make([]int, len(names))
		copy(sorted, names)
		sort.Ints(sorted)
	}
	for i := 0; i < len(sorted); {
		li, loc := a.locate(sorted[i])
		w := loc >> 6
		mask := uint64(1) << (uint(loc) & 63)
		j := i + 1
		for ; j < len(sorted); j++ {
			lj, locj := a.locate(sorted[j])
			if lj != li || locj>>6 != w {
				break
			}
			mask |= 1 << (uint(locj) & 63)
		}
		if lvl := a.levels[li].Load(); lvl != nil {
			freed := mask
			if lvl.stamps != nil {
				freed = lvl.space.FreeMaskStamped(p, w, mask, a.cfg.Lease.holder(p))
			} else {
				lvl.space.FreeMask(p, w, mask)
			}
			if n := bits.OnesCount64(freed); n > 0 {
				a.noteReleased(lvl, n)
			}
		}
		i = j
	}
}

// LeaseDomains implements Recoverable: one domain per resident level
// (stamps follow levels), re-enumerated on every call so the recovery
// sweeper and heartbeats always see the current ladder. Reclaims flow
// through the same release accounting as client releases, keeping the
// resize triggers honest.
func (a *ElasticArena) LeaseDomains() []LeaseDomain {
	if !a.cfg.Lease.enabled() {
		return nil
	}
	var out []LeaseDomain
	for li := range a.levels {
		lvl := a.levels[li].Load()
		if lvl == nil {
			continue
		}
		l := lvl
		out = append(out, LeaseDomain{
			Base:   l.base,
			Stamps: l.stamps,
			IsHeld: l.space.Probe,
			Reclaim: func(p *shm.Proc, i int) {
				l.space.Free(p, i)
				a.noteReleased(l, 1)
			},
		})
	}
	return out
}

// Touch implements Arena.
func (a *ElasticArena) Touch(p *shm.Proc, name int) {
	li, i := a.locate(name)
	if lvl := a.levels[li].Load(); lvl != nil {
		lvl.space.Claimed(p, i)
	}
}

// IsHeld implements Arena.
func (a *ElasticArena) IsHeld(name int) bool {
	li, i := a.locate(name)
	lvl := a.levels[li].Load()
	return lvl != nil && lvl.space.Probe(i)
}

// Held implements Arena: an exact popcount over the resident levels (the
// occ counter is the trigger input, not the diagnostic source of truth).
func (a *ElasticArena) Held() int {
	h := 0
	for li := range a.levels {
		if lvl := a.levels[li].Load(); lvl != nil {
			h += lvl.space.CountClaimed()
		}
	}
	return h
}

// Probeables implements Arena: the resident levels at call time.
func (a *ElasticArena) Probeables() map[string]shm.Probeable {
	m := make(map[string]shm.Probeable)
	for li := range a.levels {
		if lvl := a.levels[li].Load(); lvl != nil {
			m[lvl.space.Label()] = lvl.space
		}
	}
	return m
}

// Clock implements Arena: bitmap levels need no hardware clock.
func (a *ElasticArena) Clock() func() { return nil }
