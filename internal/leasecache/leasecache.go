// Package leasecache puts per-worker word-block lease caches in front of a
// long-lived renaming arena: workers lease blocks of up to 64 names in one
// word-granular batch claim (shm.ClaimUpTo via the backend's first-fit
// AcquireBlock, or its AcquireN where it has none) and then serve Acquire
// and absorb Release thread-locally, with zero step-counted shared-memory
// operations on the fast path.
//
// # Why a cache layer
//
// The LevelArray paper (Alistarh et al., arXiv:1405.5461) argues long-lived
// renaming is practical because the common-case acquire can be made nearly
// free. The word claim engine (internal/shm, PR 4) gets one shared-memory
// access per 64 names; this layer takes the argument to its limit: after a
// block lease, the next Block-1 acquires touch no shared memory at all —
// they pop a local stack guarded by an uncontended mutex. Steady-state
// churn is even better: a release pushes the name back onto the releasing
// worker's stack, so acquire/release cycles circulate names locally and
// refills stop entirely.
//
// # Conservation
//
// Every name is always in exactly one of three states — free in the inner
// arena, cached (claimed in the inner arena, parked on exactly one slot's
// stack, cached-bit set), or granted to a client (claimed, no cached bit).
// State transitions happen under the owning slot's mutex (a refill that
// moves parked names from a sibling slot holds both), and the
// cached-bit array is the cross-check: caching a name whose bit is already
// set, or uncaching one whose bit is clear, panics rather than silently
// losing or duplicating a name.
//
// A hit or a parked release writes only what its slot owns: the slot's
// mutex, stack header and parked count share the slot's own cache line,
// the stack's backing array is the slot's alone, and the name's cached
// bit sits in a word whose neighbors — the words first-fit refills hand
// to other workers — live on other cache lines (see cachedIndex). Cached
// and Held sum the per-slot counts.
//
// # Tightness and pressure
//
// Caching trades name tightness for latency, the same trade framed by
// "Space Bounds for Adaptive Renaming" (arXiv:1603.04067) for the sharded
// frontend: cached names are claimed but serve nobody, so the arena must
// be provisioned with slack (capacity ≳ peak holders + MaxCached per
// active worker for pressure-free operation). The trade is bounded by
// where blocks come from. A slot that runs dry first takes every name
// parked on an idle sibling slot, and leases a fresh block only when no
// sibling has names to give, so a worker whose proc moves to another slot
// (a goroutine that runs on another P) leaves its names in the slot it
// left only until its next refill takes them, not MaxCached names in
// every slot it has touched. A sibling whose worker draws from it or
// releases into it keeps its names: the refill watches the siblings'
// parked counts until each has moved, or for at most busyWindow. Fresh
// blocks (and the direct fallback) are leased first-fit through
// registry.BlockAcquirer — the lowest free words of the lowest stripe
// with room — rather than through AcquireN's home-stripe, random-word
// placement. Refills are rare, so they can afford the lowest names, and
// the largest issued name then tracks holders plus the active workers'
// parked blocks instead of the stripe a worker's proc happens to call
// home or the number of slots.
//
// Every restock, fresh block or sibling stock, lies lowest on top, so a
// slot issues it from the bottom up and its highest names are the last
// to leave the stack — often never, since releases push on top and the
// next spill takes from the bottom. Hits keep plain LIFO order: sorting
// on every hit would keep issued names tighter still, but costs the hit
// path what the cache exists to save (PERF.md, "Restocks lowest first").
//
// When provisioning is tight the layer degrades instead of starving: an
// acquirer whose slot and refill come up empty steals single names from
// other workers' stacks, and then opens a pressure window that makes the
// next Block releases bypass the cache and return names straight to the
// inner pool. Release-side pressure is bounded the same way: a stack at
// MaxCached spills a whole block back through one coalesced ReleaseN.
//
// # Crash recovery
//
// The layer composes with the lease/recovery stamps: the inner arena
// stamps every claim with the handle's holder identity, so a cached block
// is one lease — with one holder the inner arena keeps one lease record
// per 64-name bitmap word, the unit a block is cut from. HeartbeatHolder
// renews parked names along with granted ones, and a crashed process
// loses its cached blocks to the recovery sweep wholesale. LeaseDomains wraps each domain's Reclaim to
// purge the name from the cache before the bit is freed, so a sweep that
// (correctly or due to a lapsed TTL) reclaims a cached name can never
// leave it on a stack to be granted twice.
package leasecache

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shmrename/internal/longlived"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// Config parameterizes a cache layer.
type Config struct {
	// Block is the number of names leased per refill, in [1, 64] — one
	// bitmap word, so a word-scan backend serves the whole block in one
	// claim step. Default 64.
	Block int
	// Slots is the number of worker cache slots; procs hash into them by
	// ID. Default GOMAXPROCS.
	Slots int
	// MaxCached caps each slot's stack; a release into a full slot spills
	// one block back to the inner arena. Default 2×Block.
	MaxCached int
}

func (c *Config) fill() {
	if c.Block == 0 {
		c.Block = 64
	}
	if c.Slots <= 0 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.MaxCached <= 0 {
		c.MaxCached = 2 * c.Block
	}
}

// slot is one worker cache: a LIFO name stack under its own mutex, padded
// so neighboring slots never share a cache line.
type slot struct {
	mu    sync.Mutex
	names []int
	// parked counts the names this slot's stack holds with their cached
	// bit set. Only the mutex holder writes it; Cached reads it unlocked.
	parked atomic.Int64
	_      [88]byte
}

// Cache is the word-block lease cache layer. It implements
// longlived.Arena (and longlived.Recoverable when the inner arena does) by
// delegation, so it drops into every surface the inner backends serve.
// All methods are safe for concurrent use by distinct procs.
type Cache struct {
	inner longlived.Arena
	cfg   Config
	slots []slot
	// cached holds one bit per inner name: set while the name is parked on
	// a slot stack. It is the conservation cross-check and what keeps
	// IsHeld honest — a parked name is claimed below but not held by any
	// client. Bitmap word w lives at cachedIndex(w), not at w.
	cached []atomic.Uint64
	// lineShift is log2 of the number of cache lines cached spans.
	lineShift uint
	// pressure is the count of upcoming releases that must bypass the
	// cache and feed the inner pool directly; starved acquirers open it.
	pressure atomic.Int64
	// drain is the inner arena's draining probe when it has one (elastic
	// backends). A parked claim would pin a draining level forever, so the
	// cache refuses to park draining names and sheds any it finds on its
	// stacks; nil for fixed backends.
	drain registry.Drainer
	// block is the inner arena's first-fit block lease when it has one:
	// refills take the lowest free names through it instead of AcquireN's
	// randomized placement. Nil for inner arenas without the method.
	block registry.BlockAcquirer
	// Slow-path event counters (never touched on the fast path).
	refills atomic.Int64
	spills  atomic.Int64
	steals  atomic.Int64
	// moves counts sibling refills, each added while both slots are still
	// locked: purge sweeps again when it moved during a sweep.
	moves atomic.Int64
	// failed latches when a conservation violation was detected with a
	// corruption handler installed: every subsequent operation bypasses the
	// cache and goes straight to the inner arena (the frozen stacks keep
	// their claims — leaking names is the fail-safe direction; granting a
	// name in unknown state could duplicate it).
	failed atomic.Bool
	// onCorrupt, when set, receives the violation description instead of a
	// panic (except under the race detector; see strictConservation).
	onCorrupt atomic.Pointer[func(string)]
}

var _ longlived.Arena = (*Cache)(nil)
var _ longlived.Recoverable = (*Cache)(nil)

// New wraps inner with per-worker word-block lease caches.
func New(inner longlived.Arena, cfg Config) *Cache {
	cfg.fill()
	if cfg.Block < 1 || cfg.Block > 64 {
		panic(fmt.Sprintf("leasecache: Config.Block must lie in [1, 64], got %d", cfg.Block))
	}
	c := &Cache{inner: inner, cfg: cfg, slots: make([]slot, cfg.Slots)}
	c.layoutCached(inner.NameBound())
	c.drain, _ = inner.(registry.Drainer)
	c.block, _ = inner.(registry.BlockAcquirer)
	return c
}

// wordsPerLine is the number of cached-bit words in one 64-byte cache line.
const wordsPerLine = 8

// layoutCached allocates the cached array for nameBound names: L cache
// lines of wordsPerLine words, L the smallest power of two that holds
// every bitmap word, so the array is at most twice the packed words
// rounded up to whole lines (padding each word to its own line would cost
// eight times).
func (c *Cache) layoutCached(nameBound int) {
	words := (nameBound + 63) / 64
	for 1<<c.lineShift*wordsPerLine < words {
		c.lineShift++
	}
	c.cached = make([]atomic.Uint64, 1<<c.lineShift*wordsPerLine)
}

// cachedIndex maps bitmap word w to its slot in the cached array: line
// w mod L, position ⌊w/L⌋ within it. Consecutive words, which first-fit
// refills hand to different workers, land on different lines; a
// power-of-two L makes the split a mask and a shift.
func (c *Cache) cachedIndex(w int) int {
	return (w&(1<<c.lineShift-1))*wordsPerLine + w>>c.lineShift
}

// cachedWord returns the cached-bit word holding name.
func (c *Cache) cachedWord(name int) *atomic.Uint64 {
	return &c.cached[c.cachedIndex(name>>6)]
}

// draining reports whether the inner arena is draining name's level (never
// true for fixed backends).
func (c *Cache) draining(name int) bool {
	return c.drain != nil && c.drain.Draining(name)
}

// SetOnCorruption installs a handler receiving conservation-violation
// descriptions. With a handler installed, a violation fails the cache into
// pass-through mode (Failed reports true, every later operation bypasses
// the stacks) instead of panicking — except under the race detector, where
// violations always panic at the point of detection (strictConservation).
// The handler is invoked at most once, from whichever operation first
// detects damage. Safe to call at any time; nil restores panicking.
func (c *Cache) SetOnCorruption(fn func(msg string)) {
	if fn == nil {
		c.onCorrupt.Store(nil)
		return
	}
	c.onCorrupt.Store(&fn)
}

// Failed reports whether a conservation violation latched the cache into
// pass-through mode.
func (c *Cache) Failed() bool { return c.failed.Load() }

// fail handles a detected conservation violation: panic without a handler
// or under the race detector, otherwise latch pass-through mode and notify
// the handler (once).
func (c *Cache) fail(msg string) {
	h := c.onCorrupt.Load()
	if strictConservation || h == nil {
		panic(msg)
	}
	if !c.failed.Swap(true) {
		(*h)(msg)
	}
}

// mark flags name as parked on the (locked) slot s, reporting success.
// Double-parking a name would eventually grant it twice, so a set bit is
// a conservation violation: it panics, or — with a corruption handler
// installed — fails the cache and returns false (the caller routes the
// name around the stacks). The bit flip goes through setBit — the Or
// intrinsic on toolchains where it compiles correctly, a load+CAS loop
// elsewhere (see bits_fast.go).
func (c *Cache) mark(s *slot, name int) bool {
	bit := uint64(1) << (uint(name) & 63)
	if setBit(c.cachedWord(name), bit)&bit != 0 {
		c.fail(fmt.Sprintf("leasecache: name %d cached twice", name))
		return false
	}
	s.parked.Add(1)
	return true
}

// unmark clears name's parked bit on its way out of the (locked) slot s,
// reporting success. A clear bit means the stack held a name the
// cached-bit array never accounted for — with a handler installed the
// caller must drop the name (neither grant nor release it: its true state
// is unknown, and leaking is the fail-safe direction).
func (c *Cache) unmark(s *slot, name int) bool {
	bit := uint64(1) << (uint(name) & 63)
	if clearBit(c.cachedWord(name), bit)&bit == 0 {
		c.fail(fmt.Sprintf("leasecache: name %d uncached twice", name))
		return false
	}
	s.parked.Add(-1)
	return true
}

// parked reports name's cached bit (no step cost).
func (c *Cache) parked(name int) bool {
	return c.cachedWord(name).Load()&(1<<(uint(name)&63)) != 0
}

// slotFor hashes the proc to its worker slot.
func (c *Cache) slotFor(p *shm.Proc) *slot {
	return &c.slots[p.ID()%len(c.slots)]
}

// Acquire implements longlived.Arena. Fast path: pop the worker slot's
// stack — no step-counted shared-memory operation, no inner-arena work.
// Slow paths, in order: refill the slot (every name parked on an idle
// sibling slot, else a fresh first-fit block from the inner arena), steal
// one name from another worker's stack, and finally a direct inner
// acquire; a starved acquire opens the pressure window before reporting
// the arena full.
func (c *Cache) Acquire(p *shm.Proc) int {
	if c.failed.Load() {
		return c.inner.Acquire(p)
	}
	s := c.slotFor(p)
	if s.mu.TryLock() {
		name := c.pop(p, s)
		if name < 0 {
			name = c.refill(p, s)
		}
		s.mu.Unlock()
		if name >= 0 {
			return name
		}
	}
	if name := c.steal(p); name >= 0 {
		return name
	}
	if name := c.direct(p); name >= 0 {
		return name
	}
	// Starved while caches may be hoarding: last-chance steal, then make
	// the next Block releases feed the pool directly.
	if name := c.steal(p); name >= 0 {
		return name
	}
	c.pressure.Store(int64(c.cfg.Block))
	return -1
}

// refill restocks the (locked, empty) slot, returning the lowest name of
// the restock or -1 when none came. It first takes every name parked on an
// idle sibling slot (fromSibling), so parked names follow the workers that
// are active instead of staying behind in every slot a worker's proc has
// visited. Only when no sibling has names to give does it lease a fresh
// block from the inner arena. Either way the restock lies lowest on top,
// so the slot grants it from the bottom up: the names a restock adds above
// the live holders are the last to be issued.
//
// A first-fit AcquireBlock is one bounded sweep, so it runs under the slot
// mutex. AcquireN can spin until names free up (MaxPasses 0), and a proc
// unwound mid-spin by its step limit must not leave the slot locked for
// Flush to block on, so the mutex is dropped around that call; names
// other procs park meanwhile stay below the fresh block.
func (c *Cache) refill(p *shm.Proc, s *slot) int {
	if c.fromSibling(p, s) {
		if name := c.pop(p, s); name >= 0 {
			return name
		}
	}
	pre := len(s.names)
	var got []int
	if c.block != nil {
		got = c.block.AcquireBlock(p, c.cfg.Block, s.names)
	} else {
		s.mu.Unlock()
		fresh := c.inner.AcquireN(p, c.cfg.Block, nil)
		s.mu.Lock()
		pre = len(s.names)
		got = append(s.names, fresh...)
	}
	if len(got) == pre {
		s.names = got
		return -1
	}
	lowestOnTop(got[pre:])
	name := got[len(got)-1]
	s.names = got[:len(got)-1]
	if n := c.park(s, s.names[pre:]); pre+n < len(s.names) {
		// Cache failed mid-refill: the unparked tail goes straight back
		// to the inner pool, the parked prefix stays parked.
		c.inner.ReleaseN(p, s.names[pre+n:])
		s.names = s.names[:pre+n]
	}
	c.refills.Add(1)
	return name
}

// direct takes one name straight from the inner arena for an acquire its
// worker slot could not serve (slot contended or refill short, nothing to
// steal): first-fit like a refill when the inner arena offers it, so slot
// contention does not scatter names into other stripes, then the inner
// Acquire, whose bounded passes are the termination guarantee.
func (c *Cache) direct(p *shm.Proc) int {
	if c.block != nil {
		var one [1]int
		if got := c.block.AcquireBlock(p, 1, one[:0]); len(got) == 1 {
			return got[0]
		}
	}
	return c.inner.Acquire(p)
}

// park marks a freshly leased block parked on the (locked) slot s and
// returns how many of its leading names it parked. A block usually fills
// one cached-bit word, so each word costs one CAS and the block one count
// add, instead of one of each per name. A word whose bits are already set
// (or a block naming a name twice) falls back to mark, name by name, so a
// violation still names the name and the names before it stay parked.
func (c *Cache) park(s *slot, names []int) int {
	n, bulk := 0, 0
	for n < len(names) {
		wi, end, mask := names[n]>>6, n, uint64(0)
		for ; end < len(names) && names[end]>>6 == wi; end++ {
			mask |= 1 << (uint(names[end]) & 63)
		}
		if bits.OnesCount64(mask) == end-n && setFree(&c.cached[c.cachedIndex(wi)], mask) {
			bulk += end - n
			n = end
			continue
		}
		for n < end && c.mark(s, names[n]) {
			n++
		}
		if n < end {
			break
		}
	}
	s.parked.Add(int64(bulk))
	return n
}

// setFree sets every bit of mask in w with one CAS, provided none is set
// yet; otherwise it leaves w untouched and reports false.
func setFree(w *atomic.Uint64, mask uint64) bool {
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// lockParked walks the slots in ring order from index from (mod Slots),
// stopping before index stop, and returns the first whose parked count is
// nonzero and whose mutex it wins with TryLock, with that slot's index;
// nil when none. Slots with nothing parked are skipped without locking.
func (c *Cache) lockParked(from, stop int) (*slot, int) {
	for i := from; i < stop; i++ {
		s := &c.slots[i%len(c.slots)]
		if s.parked.Load() > 0 && s.mu.TryLock() {
			return s, i
		}
	}
	return nil, stop
}

// busyWindow is how long a refill watches a sibling's parked count before
// it counts the sibling as idle. A worker drawing names from its slot or
// releasing into it moves the count with every operation, and the watch
// ends at the first move of the last sibling that has names, so among
// busy siblings a refill waits only for their next operation. The full
// window is spent only when a sibling holds still, and then a take
// follows. A sibling whose worker runs slower than one operation per
// window looks idle and may lose a block; its hits then share cached-bit
// lines with the taker's, but they come less than once per window, so
// the shared lines cost it little. PERF.md ("Sibling refills") has the
// measurements behind the value.
const busyWindow = time.Microsecond

// lowestOnTop orders a run of stack entries highest first, so the top of
// the stack — its last entry, where pop takes — holds the lowest name. A
// first-fit block arrives ascending and is only reversed: refills sit on
// the set-up path of every prefill, where a full sort of each block cost
// about 4% of a 1000-name fill.
func lowestOnTop(names []int) {
	if !slices.IsSorted(names) {
		slices.Sort(names)
	}
	slices.Reverse(names)
}

// fromSibling moves every name parked on an idle sibling slot onto the
// (locked) slot s, reporting whether it found one. A stack holds at most
// max(MaxCached, Block-1) names — a release into a full one spills — so
// that bounds one move. Names left on an idle sibling would stay parked
// where no worker draws, and later restocks would add fresh names above
// them. Taking from a busy sibling would split the words its worker holds
// between two workers, whose hits then write the same cached-bit lines;
// see stillSiblings for the idle test. The names stay parked throughout —
// their cached bits stay set, only the two slots' parked counts change —
// and arrive lowest on top, so s serves them lowest first.
func (c *Cache) fromSibling(p *shm.Proc, s *slot) bool {
	home := p.ID() % len(c.slots)
	stop := home + len(c.slots)
	var buf [64]int64
	counts := buf[:0]
	if len(c.slots) > len(buf) {
		counts = make([]int64, 0, len(c.slots))
	}
	some := false
	for i := home + 1; i < stop; i++ {
		n := c.slots[i%len(c.slots)].parked.Load()
		counts = append(counts, n)
		some = some || n > 0
	}
	if !some || !c.stillSiblings(home, counts) {
		return false
	}
	for sib, i := c.lockParked(home+1, stop); sib != nil; sib, i = c.lockParked(i+1, stop) {
		if sib.parked.Load() != counts[i-home-1] {
			sib.mu.Unlock()
			continue
		}
		lowestOnTop(sib.names)
		s.names = append(s.names, sib.names...)
		moved := int64(len(sib.names))
		sib.names = sib.names[:0]
		sib.parked.Add(-moved)
		s.parked.Add(moved)
		c.moves.Add(1)
		sib.mu.Unlock()
		c.steals.Add(1)
		return true
	}
	return false
}

// stillSiblings watches the parked counts of the siblings after slot home,
// counts[k] holding the count first read for slot home+1+k, and reports
// whether some sibling with names kept its count for busyWindow. A
// sibling whose count moves is busy and gets count -1, so no later
// comparison matches it. The watch returns false at once when no sibling
// has names, and as soon as every sibling that had names has moved.
func (c *Cache) stillSiblings(home int, counts []int64) bool {
	for start := time.Now(); ; {
		still := false
		for k, n := range counts {
			if n <= 0 {
				continue
			}
			if c.slots[(home+1+k)%len(c.slots)].parked.Load() != n {
				counts[k] = -1
			} else {
				still = true
			}
		}
		if !still || time.Since(start) >= busyWindow {
			return still
		}
	}
}

// pop takes the top name off the (locked) slot s for a grant, returning
// -1 once the stack runs dry. It is the one way a parked name leaves a
// stack as a grant: the hit path, batch acquires, refills and steals all
// pop. The name's cached bit is cleared; an unaccounted name is dropped,
// and a draining one is shed to the inner arena, since a parked claim
// must not pin a draining level.
func (c *Cache) pop(p *shm.Proc, s *slot) int {
	for n := len(s.names); n > 0; n = len(s.names) {
		name := s.names[n-1]
		s.names = s.names[:n-1]
		if !c.unmark(s, name) {
			continue // unaccounted name: drop it, never grant
		}
		if c.draining(name) {
			c.inner.Release(p, name)
			continue
		}
		return name
	}
	return -1
}

// steal pops one parked name from any slot, starting at the proc's own.
func (c *Cache) steal(p *shm.Proc) int {
	home := p.ID() % len(c.slots)
	for s, i := c.lockParked(home, home+len(c.slots)); s != nil; s, i = c.lockParked(i+1, home+len(c.slots)) {
		name := c.pop(p, s)
		s.mu.Unlock()
		if name >= 0 {
			c.steals.Add(1)
			return name
		}
	}
	return -1
}

// relieve consumes one unit of the pressure window.
func (c *Cache) relieve() bool {
	for {
		v := c.pressure.Load()
		if v <= 0 {
			return false
		}
		if c.pressure.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// Release implements longlived.Arena. Fast path: push the name onto the
// worker slot's stack — the claim bit stays set in the inner arena, so no
// step-counted shared-memory operation happens. The name bypasses the
// cache under an open pressure window, on slot-mutex contention, or past
// MaxCached (which first spills one whole block back through a coalesced
// ReleaseN).
func (c *Cache) Release(p *shm.Proc, name int) {
	if c.failed.Load() {
		c.inner.Release(p, name)
		return
	}
	if c.draining(name) {
		// Spill-on-drain: parking the claim would pin the draining level
		// forever, so the name goes straight back to the inner pool (which
		// is also what lets the drain complete).
		c.inner.Release(p, name)
		return
	}
	if c.relieve() {
		c.inner.Release(p, name)
		return
	}
	s := c.slotFor(p)
	if !s.mu.TryLock() {
		c.inner.Release(p, name)
		return
	}
	var spill []int
	if len(s.names) >= c.cfg.MaxCached {
		spill = c.takeBlock(s)
	}
	if !c.mark(s, name) {
		s.mu.Unlock()
		c.inner.Release(p, name) // cache failed: route around the stacks
		if spill != nil {
			c.inner.ReleaseN(p, spill)
		}
		return
	}
	s.names = append(s.names, name)
	s.mu.Unlock()
	if spill != nil {
		c.inner.ReleaseN(p, spill)
		c.spills.Add(1)
	}
}

// takeBlock pops up to one block of the oldest parked names from the
// (locked) slot. Oldest first: they likely came from one leased word, so
// the inner ReleaseN coalesces them back into few clearing steps, and a
// restock lies lowest on top, so what is left of it at the bottom is its
// highest names.
func (c *Cache) takeBlock(s *slot) []int {
	k := c.cfg.Block
	if k > len(s.names) {
		k = len(s.names)
	}
	out := make([]int, 0, k)
	for _, n := range s.names[:k] {
		if c.unmark(s, n) {
			out = append(out, n) // unaccounted names are dropped, not freed
		}
	}
	s.names = append(s.names[:0], s.names[k:]...)
	return out
}

// AcquireN implements longlived.Arena: the worker slot serves as much of
// the batch as it holds; the remainder goes to the inner batch path.
func (c *Cache) AcquireN(p *shm.Proc, k int, out []int) []int {
	if c.failed.Load() {
		return c.inner.AcquireN(p, k, out)
	}
	s := c.slotFor(p)
	if s.mu.TryLock() {
		for ; k > 0; k-- {
			name := c.pop(p, s)
			if name < 0 {
				break
			}
			out = append(out, name)
		}
		s.mu.Unlock()
	}
	if k > 0 {
		out = c.inner.AcquireN(p, k, out)
	}
	return out
}

// ReleaseN implements longlived.Arena: under pressure the whole batch
// feeds the inner pool (counting as one relief); otherwise the worker slot
// absorbs names up to MaxCached and the rest flows through the inner
// batch release.
func (c *Cache) ReleaseN(p *shm.Proc, names []int) {
	if len(names) == 0 {
		return
	}
	direct := names
	if !c.failed.Load() && !c.relieve() {
		s := c.slotFor(p)
		if s.mu.TryLock() {
			i := 0
			for ; i < len(names) && len(s.names) < c.cfg.MaxCached; i++ {
				if c.draining(names[i]) {
					// Spill-on-drain; the tail past this name flows through
					// the inner batch release with it.
					break
				}
				if !c.mark(s, names[i]) {
					break // cache failed: the tail goes straight to the pool
				}
				s.names = append(s.names, names[i])
			}
			s.mu.Unlock()
			direct = names[i:]
		}
	}
	if len(direct) > 0 {
		c.inner.ReleaseN(p, direct)
	}
}

// Flush returns every parked name to the inner arena (coalesced per
// slot) and empties the caches. It is the orderly shutdown path — the
// public Arena.Close flushes so names don't dangle until a lease sweep.
func (c *Cache) Flush(p *shm.Proc) int {
	total := 0
	var buf []int
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		buf = buf[:0]
		for _, n := range s.names {
			if c.unmark(s, n) {
				buf = append(buf, n) // unaccounted names are dropped, not freed
			}
		}
		s.names = s.names[:0]
		s.mu.Unlock()
		c.inner.ReleaseN(p, buf)
		total += len(buf)
	}
	return total
}

// purge removes a parked name from whichever slot holds it, reporting
// whether it was found. The recovery sweep calls it through the wrapped
// Reclaim before freeing the name's claim bit. The sweep locks one slot at
// a time, so a sibling refill could carry the name from a slot it has not
// reached to one it has passed; a sweep that a move overlapped therefore
// sweeps again. A set cached bit that sits on no stack is not found.
func (c *Cache) purge(name int) bool {
	for {
		moves := c.moves.Load()
		if !c.parked(name) {
			return false
		}
		for i := range c.slots {
			s := &c.slots[i]
			s.mu.Lock()
			for j, n := range s.names {
				if n == name {
					s.names = append(s.names[:j], s.names[j+1:]...)
					c.unmark(s, name)
					s.mu.Unlock()
					return true
				}
			}
			s.mu.Unlock()
		}
		if c.moves.Load() == moves {
			return false
		}
	}
}

// Parked reports whether name is currently parked on a slot stack (the
// cached bit; no step cost). The integrity scrubber cross-checks it
// against the inner claim bit: a parked name must be claimed underneath.
func (c *Cache) Parked(name int) bool { return c.parked(name) }

// PurgeParked evicts a parked name from the cache, reporting whether it
// was found. The integrity scrubber calls it for phantom entries — parked
// names whose inner claim bit is clear — so the cache can never grant a
// name it holds no claim on.
func (c *Cache) PurgeParked(name int) bool { return c.purge(name) }

// LeaseDomains implements longlived.Recoverable: the inner arena's
// domains with Reclaim wrapped to purge the name from the cache first, so
// a reclaimed name can never linger on a stack and be granted twice. A
// non-recoverable (or lease-off) inner arena yields no domains.
func (c *Cache) LeaseDomains() []longlived.LeaseDomain {
	rec, ok := c.inner.(longlived.Recoverable)
	if !ok {
		return nil
	}
	domains := rec.LeaseDomains()
	out := make([]longlived.LeaseDomain, len(domains))
	for i, d := range domains {
		base, inner := d.Base, d.Reclaim
		d.Reclaim = func(p *shm.Proc, j int) {
			c.purge(base + j)
			inner(p, j)
		}
		out[i] = d
	}
	return out
}

// Label implements longlived.Arena.
func (c *Cache) Label() string {
	return fmt.Sprintf("%s+leasecache(block=%d,slots=%d)",
		c.inner.Label(), c.cfg.Block, len(c.slots))
}

// Capacity implements longlived.Arena. Note the provisioning caveat in
// the package comment: parked names count against the inner capacity.
func (c *Cache) Capacity() int { return c.inner.Capacity() }

// NameBound implements longlived.Arena.
func (c *Cache) NameBound() int { return c.inner.NameBound() }

// Touch implements longlived.Arena.
func (c *Cache) Touch(p *shm.Proc, name int) { c.inner.Touch(p, name) }

// IsHeld implements longlived.Arena: a parked name is claimed in the
// inner arena but held by nobody, so it reports false — which is what
// keeps the public release validation rejecting names the cache owns.
func (c *Cache) IsHeld(name int) bool {
	return c.inner.IsHeld(name) && !c.parked(name)
}

// Held implements longlived.Arena: the inner claim count minus the parked
// names. Both reads are racy snapshots (diagnostics only); the clamp
// absorbs a release landing between them.
func (c *Cache) Held() int {
	h := c.inner.Held() - c.Cached()
	if h < 0 {
		h = 0
	}
	return h
}

// Cached returns the number of currently parked names: the slots' parked
// counts summed (a snapshot; each slot is read once, unlocked).
func (c *Cache) Cached() int {
	var n int64
	for i := range c.slots {
		n += c.slots[i].parked.Load()
	}
	return int(n)
}

// Stats returns the slow-path event counters: blocks leased from the
// inner arena, blocks spilled back to it, and cross-slot steals — each
// sibling stock a refill takes counts as one steal, as does each single
// name the steal path pops. The fast path counts nothing.
func (c *Cache) Stats() (refills, spills, steals int64) {
	return c.refills.Load(), c.spills.Load(), c.steals.Load()
}

// CapacityNow implements registry.Elastic by delegation; a fixed inner
// arena reports its (constant) capacity.
func (c *Cache) CapacityNow() int {
	if el, ok := c.inner.(registry.Elastic); ok {
		return el.CapacityNow()
	}
	return c.inner.Capacity()
}

// PeakCapacity implements registry.Elastic by delegation.
func (c *Cache) PeakCapacity() int {
	if el, ok := c.inner.(registry.Elastic); ok {
		return el.PeakCapacity()
	}
	return c.inner.Capacity()
}

// Grow implements registry.Elastic by delegation; fixed inner arenas never
// grow.
func (c *Cache) Grow() bool {
	if el, ok := c.inner.(registry.Elastic); ok {
		return el.Grow()
	}
	return false
}

// Shrink implements registry.Elastic by delegation. The parked names of
// this layer count as occupancy below, so a drain completes only after the
// drain-shedding paths (Acquire pops, Release spills) clear the draining
// level's names from the stacks.
func (c *Cache) Shrink() bool {
	if el, ok := c.inner.(registry.Elastic); ok {
		return el.Shrink()
	}
	return false
}

// ResidentBytes implements registry.Footprint by delegation (the cached-bit
// array scales with NameBound, not residency, and is excluded like every
// per-handle structure).
func (c *Cache) ResidentBytes() int64 {
	if fp, ok := c.inner.(registry.Footprint); ok {
		return fp.ResidentBytes()
	}
	return 0
}

// Draining implements registry.Drainer by delegation.
func (c *Cache) Draining(name int) bool { return c.draining(name) }

// Probeables implements longlived.Arena.
func (c *Cache) Probeables() map[string]shm.Probeable { return c.inner.Probeables() }

// Clock implements longlived.Arena.
func (c *Cache) Clock() func() { return c.inner.Clock() }
