// Package sharded provides the striped frontend of the long-lived
// renaming arena: the name space is partitioned across S independent
// level ladders (longlived.LevelArena, or longlived.ElasticArena when the
// stripes are elastic), so that concurrent Acquire and Release traffic
// from real goroutines scales with cores instead of serializing on one
// backend's shared bitmap words.
//
// # Why stripe
//
// A single longlived.LevelArena funnels every claimer through the same
// level-0 bitmap words: on real cores that is CAS contention and — at high
// occupancy — a backstop scan of the full capacity on every acquire. The
// LevelArray paper (Alistarh et al., arXiv:1405.5461) shows long-lived
// renaming is won or lost on exactly this contention behavior. Striping
// gives each core its own ladder: per-shard capacity is capacity/S, so the
// per-shard ladder is shorter, the per-shard backstop scan is S times
// smaller, and claimers on different shards touch disjoint cache lines.
//
// # Affinity, stealing, sweep
//
// Acquire runs a three-tier protocol:
//
//  1. Home shard: every process has a cached home-shard affinity (its last
//     success site, seeded by PID modulo S). One bounded pass over the home
//     sub-arena resolves the common case with zero cross-shard traffic.
//  2. Work stealing: on a full home shard, up to stealProbes (2) randomly
//     chosen other shards are each tried with one bounded pass. A hit
//     migrates the affinity, so load imbalance self-corrects.
//  3. Full sweep: deterministic rotation over all shards starting at the
//     home shard, up to MaxPasses rounds — the termination guarantee,
//     exactly mirroring the single arena's backstop contract.
//
// For provisioned arenas, the word-block lease cache (package leasecache)
// layers above this frontend and removes even the home-shard CAS from the
// common case: whole 64-name blocks are leased once (first-fit, through
// AcquireBlock), then served thread-locally with zero step-counted
// shared-memory operations.
//
// Release locates the owning shard from the name alone (shards own disjoint
// contiguous name ranges) and also re-targets the releaser's affinity at
// that shard: a freed slot is the best known hint for where the next
// acquire will succeed, which under tight provisioning routes a releaser
// straight back to its own freed slot.
//
// # Name tightness envelope
//
// Striping trades name tightness for throughput, the trade-off framed by
// "Space Bounds for Adaptive Renaming" (Helmi, Higham, Woelfel,
// arXiv:1603.04067): issued names lie in [0, NameBound) with
// NameBound = Σ_s subBound(s) ≤ S × subBound_max — i.e. the documented
// `shards × per-shard bound` envelope. With level sub-arenas
// subBound(s) < 4·⌈capacity/S⌉, so the global bound stays below
// 4·capacity + 4·S; low per-shard occupancy still concentrates names at
// the bottom of each shard's range, so the largest issued name tracks
// occupancy per stripe rather than globally. A single name taken from the
// wrong stripe — a proc whose home is stripe 1 — puts the largest name
// past ShardBase(1) however empty the arena is. AcquireBlock, the
// first-fit sweep caching layers refill through, closes that gap for
// block leases: it walks the stripes in index order, so parked blocks fill
// stripe 0 before stripe 1 sees one. Acquire and AcquireN keep home-stripe
// routing, which spreads client contention across stripes.
//
// Both execution modes are supported: every operation flows through
// *shm.Proc exactly as in the sub-arenas, so the deterministic adversarial
// simulator schedules sharded churn bit-reproducibly, and native goroutines
// run the same code on sync/atomic.
package sharded

import (
	"fmt"
	"sort"
	"sync/atomic"

	"shmrename/internal/longlived"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// Config parameterizes a sharded arena.
type Config struct {
	// Shards is the stripe count S (required, >= 1). Each shard is an
	// independent sub-arena guaranteeing ⌈capacity/S⌉ concurrent holders.
	Shards int
	// MaxPasses bounds full sweeps over all shards before Acquire reports
	// the arena full; 0 means unlimited (simulated runs rely on the
	// scheduler's step budget instead).
	MaxPasses int
	// WordScan forwards the word-granular claim engine to every sub-arena
	// (longlived.LevelConfig.WordScan / ElasticConfig.WordScan): probes and
	// backstops run one snapshot-scan-CAS per bitmap word, and batch
	// acquires claim up to 64 names per step. Off by default — the per-bit
	// probe path is the deterministic-mode golden-fingerprint contract.
	WordScan bool
	// Padded forwards the line-aligned bitmap layout (packed words rounded
	// up to whole 64-byte cache lines per level) to every shard, for native
	// runs on real cores.
	Padded bool
	// Lease forwards the crash-recovery stamp layer to every shard (see
	// longlived.LeaseOpts); the frontend then exposes the shards' stamped
	// regions through LeaseDomains, offset by each shard's name base. Nil
	// (the default) costs nothing.
	Lease *longlived.LeaseOpts
	// Elastic stripes longlived.ElasticArena sub-arenas instead of fixed
	// ones: each shard's ladder grows and drains with its own occupancy
	// (thresholds per registry.ElasticParams; MinCapacity is the per-shard
	// floor), so resident memory and probe work track per-stripe
	// contention. The equal-stride name envelope is unchanged: an elastic
	// ladder's NameBound equals the fixed ladder's for the same
	// sub-capacity. Nil (the default) keeps the shards fixed.
	Elastic *registry.ElasticParams
	// Label prefixes the operation-space labels. Default "sharded".
	Label string
}

func (c *Config) fill() {
	if c.Label == "" {
		c.Label = "sharded"
	}
}

// stealProbes is the number of randomly chosen other shards an acquire
// tries after its home shard fails, before the deterministic full sweep.
const stealProbes = 2

// stripe is one shard: a fixed (longlived.LevelArena) or elastic
// (longlived.ElasticArena) level ladder. Both lease first-fit blocks,
// report their footprint and expose their stamped regions, so the
// frontend delegates those without a fallback.
type stripe interface {
	longlived.Arena
	longlived.Recoverable
	registry.BlockAcquirer
	registry.Footprint
}

// affinitySlots sizes the home-shard affinity cache. It is a power of two;
// processes hash into it by PID, and a collision merely shares a
// performance hint between two processes — safety never depends on the
// cache's contents.
const affinitySlots = 256

// Arena is the striped arena frontend. It implements longlived.Arena by
// delegating to Shards independent sub-arenas that own disjoint contiguous
// name ranges, so the union of the shards' holder sets is automatically
// duplicate-free: no two live holders can share a name, within or across
// shards. All methods are safe for concurrent use by distinct procs.
type Arena struct {
	cfg    Config
	shards []stripe
	base   []int // base[s] = first global name of shard s
	stride int   // per-shard name-range width (identical across shards)
	bound  int
	cap    int
	// affinity caches each process's home shard (+1; 0 = unset), indexed
	// by PID & (affinitySlots-1). Purely a routing hint.
	affinity [affinitySlots]atomic.Int32
	// occupied is the per-shard occupancy hint: bit s is set when an
	// acquire observed shard s full, cleared by releases into s and by
	// successful acquires from s. Like the word-saturation hints of the
	// claim engine (the same shm.HintBits type backs both) it only
	// redirects the probe and steal phases and orders the full sweep — the
	// sweep still consults every shard each round, so a stale hint (a
	// release racing the failed acquire that set it) can never defeat the
	// termination guarantee.
	occupied *shm.HintBits
}

var _ longlived.Arena = (*Arena)(nil)
var _ longlived.Recoverable = (*Arena)(nil)
var _ registry.BlockAcquirer = (*Arena)(nil)

// New builds a sharded arena guaranteeing capacity concurrent holders
// across all stripes.
func New(capacity int, cfg Config) *Arena {
	if capacity < 1 {
		panic("sharded: capacity must be >= 1")
	}
	if cfg.Shards < 1 {
		panic("sharded: Config.Shards must be >= 1")
	}
	if cfg.Shards > capacity {
		panic(fmt.Sprintf("sharded: Config.Shards %d exceeds capacity %d", cfg.Shards, capacity))
	}
	cfg.fill()
	a := &Arena{cfg: cfg, cap: capacity}
	subCap := (capacity + cfg.Shards - 1) / cfg.Shards
	for s := 0; s < cfg.Shards; s++ {
		label := fmt.Sprintf("%s:s%d", cfg.Label, s)
		var sub stripe
		if e := cfg.Elastic; e != nil {
			sub = longlived.NewElastic(subCap, longlived.ElasticConfig{
				MinCapacity: e.MinCapacity,
				GrowAt:      e.GrowAt,
				ShrinkAt:    e.ShrinkAt,
				ShrinkAfter: e.ShrinkAfter,
				MaxPasses:   1, // one bounded pass per frontend attempt
				WordScan:    cfg.WordScan,
				Padded:      cfg.Padded,
				Lease:       cfg.Lease,
				Label:       label,
			})
		} else {
			sub = longlived.NewLevel(subCap, longlived.LevelConfig{
				MaxPasses: 1, // one bounded pass per frontend attempt
				WordScan:  cfg.WordScan,
				Padded:    cfg.Padded,
				Lease:     cfg.Lease,
				Label:     label,
			})
		}
		a.shards = append(a.shards, sub)
		a.base = append(a.base, a.bound)
		a.bound += sub.NameBound()
	}
	a.occupied = shm.NewHintBits(cfg.Shards)
	// Every shard is built from the same sub-capacity, so the per-shard
	// name ranges share one width and locate() is a division, not a search.
	a.stride = a.shards[0].NameBound()
	for s, sub := range a.shards {
		if sub.NameBound() != a.stride {
			panic(fmt.Sprintf("sharded: shard %d bound %d != stride %d", s, sub.NameBound(), a.stride))
		}
	}
	return a
}

// Label implements longlived.Arena.
func (a *Arena) Label() string {
	scan := "bit"
	if a.cfg.WordScan {
		scan = "word"
	}
	return fmt.Sprintf("sharded-level(shards=%d,steal=%d,scan=%s)",
		len(a.shards), stealProbes, scan)
}

// Capacity implements longlived.Arena.
func (a *Arena) Capacity() int { return a.cap }

// NameBound implements longlived.Arena: Σ per-shard bounds, the
// shards × per-shard-bound tightness envelope.
func (a *Arena) NameBound() int { return a.bound }

// Shards returns the stripe count (diagnostics).
func (a *Arena) Shards() int { return len(a.shards) }

// Shard returns sub-arena s (diagnostics and tests).
func (a *Arena) Shard(s int) longlived.Arena { return a.shards[s] }

// ShardBase returns the first global name owned by shard s (tests).
func (a *Arena) ShardBase(s int) int { return a.base[s] }

// home returns the process's cached home shard, seeded by PID modulo the
// stripe count when the cache slot is cold.
func (a *Arena) home(p *shm.Proc) int {
	if v := a.affinity[p.ID()&(affinitySlots-1)].Load(); v > 0 && int(v) <= len(a.shards) {
		return int(v - 1)
	}
	return p.ID() % len(a.shards)
}

// remember caches shard s as the process's home for its next acquire. The
// store is skipped when the hint already matches, keeping the common
// home-hit path read-only on the shared affinity line.
func (a *Arena) remember(p *shm.Proc, s int) {
	slot := &a.affinity[p.ID()&(affinitySlots-1)]
	if v := int32(s) + 1; slot.Load() != v {
		slot.Store(v)
	}
}

// ShardOccupied reports the full-shard hint for s without touching the
// shard (diagnostics and tests). It may be stale; see the occupied field.
func (a *Arena) ShardOccupied(s int) bool { return a.occupied.Get(s) }

// triedShards tracks which shards a sweep round already visited, so the
// round's second phase retries exactly the shards the hint-gated first
// phase skipped — partitioning on what phase one actually did, not on the
// racy hints, which a concurrent release could flip between the phases.
// Rounds over more than 64x4 shards fall back to unconditional retries
// (correct, merely paying a duplicate bounded pass per phase-one shard).
type triedShards struct {
	bits  [4]uint64
	exact bool
}

func newTriedShards(nShards int) triedShards {
	return triedShards{exact: nShards <= 64*4}
}

func (t *triedShards) add(s int) {
	if t.exact {
		t.bits[s>>6] |= 1 << (uint(s) & 63)
	}
}

func (t *triedShards) has(s int) bool {
	return t.exact && t.bits[s>>6]&(1<<(uint(s)&63)) != 0
}

// tryShard runs one bounded acquire pass against shard s, maintaining the
// occupancy hint: a win clears it (the shard observably had space), a full
// report sets it. Returns the global name or -1.
func (a *Arena) tryShard(p *shm.Proc, s int) int {
	if n := a.shards[s].Acquire(p); n >= 0 {
		a.occupied.Clear(s)
		a.remember(p, s)
		return a.base[s] + n
	}
	a.occupied.Set(s)
	return -1
}

// Acquire implements longlived.Arena: home shard, then bounded stealing,
// then the deterministic full sweep. The occupancy hints gate the home and
// steal phases (a shard observed full is skipped at zero step cost until a
// release reopens it) and order the sweep — unhinted shards first — but
// every sweep round still consults all shards, preserving the termination
// guarantee against stale hints.
func (a *Arena) Acquire(p *shm.Proc) int {
	nS := len(a.shards)
	h := a.home(p)
	if !a.ShardOccupied(h) {
		if n := a.tryShard(p, h); n >= 0 {
			return n
		}
	}
	if nS > 1 {
		r := p.Rand()
		for t := 0; t < stealProbes; t++ {
			// Pick uniformly among the other shards, excluding home; a
			// hinted-full pick consumes the probe without paying steps.
			v := (h + 1 + r.Intn(nS-1)) % nS
			if a.ShardOccupied(v) {
				continue
			}
			if n := a.tryShard(p, v); n >= 0 {
				return n
			}
		}
	}
	// Full sweep from the home shard: with at most capacity-1 concurrent
	// holders some shard sits below its sub-capacity, so its backstop has a
	// free slot; only races against concurrent claimers can defeat a round,
	// and MaxPasses converts that unbounded wait into an arena-full report.
	// Each round visits hint-free shards first, then exactly the shards
	// phase one skipped (triedShards): together the phases consult every
	// shard every round, so a racy hint flip between them cannot exclude a
	// shard and break the termination guarantee.
	for pass := 0; a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses; pass++ {
		tried := newTriedShards(nS)
		for off := 0; off < nS; off++ {
			v := (h + off) % nS
			if a.ShardOccupied(v) {
				continue
			}
			tried.add(v)
			if n := a.tryShard(p, v); n >= 0 {
				return n
			}
		}
		for off := 0; off < nS; off++ {
			v := (h + off) % nS
			if tried.has(v) {
				continue
			}
			if n := a.tryShard(p, v); n >= 0 {
				return n
			}
		}
	}
	return -1
}

// acquireBatch runs one bounded batch pass against shard s, appending
// base-offset global names and maintaining the occupancy hint. It returns
// the extended slice and the remaining count.
func (a *Arena) acquireBatch(p *shm.Proc, s, k int, out []int) ([]int, int) {
	pre := len(out)
	out = a.shards[s].AcquireN(p, k, out)
	got := len(out) - pre
	for i := pre; i < len(out); i++ {
		out[i] += a.base[s]
	}
	if got > 0 {
		a.occupied.Clear(s)
		a.remember(p, s)
	}
	if got < k {
		a.occupied.Set(s)
	}
	return out, k - got
}

// AcquireN implements longlived.Arena, routing the batch through the same
// three-tier protocol as Acquire: the home shard serves as much of the
// batch as it can (word-granular sub-arenas claim up to 64 names per
// step), stealing tops up the remainder from randomly probed shards, and
// the ordered full sweep completes or bounds the request. Hints gate the
// first two phases exactly as in Acquire.
func (a *Arena) AcquireN(p *shm.Proc, k int, out []int) []int {
	nS := len(a.shards)
	h := a.home(p)
	if !a.ShardOccupied(h) {
		if out, k = a.acquireBatch(p, h, k, out); k == 0 {
			return out
		}
	}
	if nS > 1 {
		r := p.Rand()
		for t := 0; t < stealProbes; t++ {
			v := (h + 1 + r.Intn(nS-1)) % nS
			if a.ShardOccupied(v) {
				continue
			}
			if out, k = a.acquireBatch(p, v, k, out); k == 0 {
				return out
			}
		}
	}
	// Mirror Acquire's sweep: a hint-gated phase for ordering, then exactly
	// the phase-one-skipped shards, so racy hints cannot exclude a shard
	// from the round (see Acquire).
	for pass := 0; k > 0 && (a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses); pass++ {
		tried := newTriedShards(nS)
		for off := 0; k > 0 && off < nS; off++ {
			v := (h + off) % nS
			if a.ShardOccupied(v) {
				continue
			}
			tried.add(v)
			out, k = a.acquireBatch(p, v, k, out)
		}
		for off := 0; k > 0 && off < nS; off++ {
			v := (h + off) % nS
			if tried.has(v) {
				continue
			}
			out, k = a.acquireBatch(p, v, k, out)
		}
	}
	return out
}

// AcquireBlock implements registry.BlockAcquirer: one first-fit sweep over
// the stripes in index order, skipping stripes hinted full, so blocks land
// in the lowest stripe with room whatever the caller's home stripe. Each
// stripe runs its own first-fit AcquireBlock. A stripe that comes back
// short is hinted full, as in acquireBatch. The caller's affinity is left
// alone: AcquireN and Acquire keep their home stripe routing.
func (a *Arena) AcquireBlock(p *shm.Proc, k int, out []int) []int {
	for s := 0; k > 0 && s < len(a.shards); s++ {
		if a.ShardOccupied(s) {
			continue
		}
		pre := len(out)
		out = a.shards[s].AcquireBlock(p, k, out)
		for i := pre; i < len(out); i++ {
			out[i] += a.base[s]
		}
		got := len(out) - pre
		if got < k {
			a.occupied.Set(s)
		}
		k -= got
	}
	return out
}

// locate returns the shard owning the global name and its local index.
// Shards own equal-width contiguous ranges, so this is one division.
func (a *Arena) locate(name int) (int, int) {
	if name < 0 || name >= a.bound {
		panic(fmt.Sprintf("sharded: name %d outside arena bound %d", name, a.bound))
	}
	return name / a.stride, name % a.stride
}

// Release implements longlived.Arena. It re-targets the releaser's
// affinity at the freed shard: the freed slot is where the releaser's next
// acquire is most likely to succeed.
func (a *Arena) Release(p *shm.Proc, name int) {
	s, i := a.locate(name)
	a.shards[s].Release(p, i)
	a.occupied.Clear(s)
	a.remember(p, s)
}

// ReleaseN implements longlived.Arena: the batch is grouped by owning
// shard (one sort of a scratch copy) and each group is released through
// the shard's own batch path, so word-adjacent names coalesce into single
// clearing steps. Every touched shard drops its occupancy hint; the
// releaser's affinity re-targets the first freed shard.
func (a *Arena) ReleaseN(p *shm.Proc, names []int) {
	switch len(names) {
	case 0:
		return
	case 1:
		a.Release(p, names[0])
		return
	}
	sorted := make([]int, len(names))
	copy(sorted, names)
	sort.Ints(sorted)
	first := -1
	for i := 0; i < len(sorted); {
		s, _ := a.locate(sorted[i])
		j := i
		for ; j < len(sorted) && sorted[j]/a.stride == s; j++ {
			sorted[j] -= a.base[s]
		}
		a.shards[s].ReleaseN(p, sorted[i:j])
		a.occupied.Clear(s)
		if first < 0 {
			first = s
		}
		i = j
	}
	if first >= 0 {
		a.remember(p, first)
	}
}

// LeaseDomains implements longlived.Recoverable: the shards' stamped
// regions in name order, each offset by its shard's global name base. With
// leases off every shard returns no domains and so does the frontend.
func (a *Arena) LeaseDomains() []longlived.LeaseDomain {
	var out []longlived.LeaseDomain
	for s, sub := range a.shards {
		for _, d := range sub.LeaseDomains() {
			d.Base += a.base[s]
			out = append(out, d)
		}
	}
	return out
}

// CapacityNow implements registry.Elastic: the summed resident capacity of
// the stripes, clamped to Capacity. Fixed sub-arenas contribute their full
// capacity, so a non-elastic sharded arena reports Capacity: each stripe
// holds ⌈capacity/S⌉ names, and the clamp drops the rounding.
func (a *Arena) CapacityNow() int {
	c := 0
	for _, s := range a.shards {
		if el, ok := s.(registry.Elastic); ok {
			c += el.CapacityNow()
		} else {
			c += s.Capacity()
		}
	}
	return min(c, a.cap)
}

// PeakCapacity implements registry.Elastic (summed per-stripe peaks,
// clamped to Capacity; the stripes peak independently, so this bounds any
// instantaneous global capacity from above).
func (a *Arena) PeakCapacity() int {
	c := 0
	for _, s := range a.shards {
		if el, ok := s.(registry.Elastic); ok {
			c += el.PeakCapacity()
		} else {
			c += s.Capacity()
		}
	}
	return min(c, a.cap)
}

// Grow implements registry.Elastic: every stripe is asked to extend its
// ladder; true when any did. Fixed stripes never grow.
func (a *Arena) Grow() bool {
	grew := false
	for _, s := range a.shards {
		if el, ok := s.(registry.Elastic); ok && el.Grow() {
			grew = true
		}
	}
	return grew
}

// Shrink implements registry.Elastic: every stripe attempts a drain; true
// when any retired a level. Like the sub-arena's Shrink it never reclaims
// a held name.
func (a *Arena) Shrink() bool {
	shrank := false
	for _, s := range a.shards {
		if el, ok := s.(registry.Elastic); ok && el.Shrink() {
			shrank = true
		}
	}
	return shrank
}

// ResidentBytes implements registry.Footprint: the summed footprint of the
// stripes.
func (a *Arena) ResidentBytes() int64 {
	var b int64
	for _, s := range a.shards {
		b += s.ResidentBytes()
	}
	return b
}

// Draining implements registry.Drainer, routing to the owning stripe: a
// caching layer must not park names of a draining per-shard level. Fixed
// stripes never drain, so without elastic stripes it answers at once (the
// lease cache asks on every release).
func (a *Arena) Draining(name int) bool {
	if a.cfg.Elastic == nil {
		return false
	}
	s, i := a.locate(name)
	d, ok := a.shards[s].(registry.Drainer)
	return ok && d.Draining(i)
}

// Touch implements longlived.Arena.
func (a *Arena) Touch(p *shm.Proc, name int) {
	s, i := a.locate(name)
	a.shards[s].Touch(p, i)
}

// IsHeld implements longlived.Arena.
func (a *Arena) IsHeld(name int) bool {
	s, i := a.locate(name)
	return a.shards[s].IsHeld(i)
}

// Held implements longlived.Arena.
func (a *Arena) Held() int {
	h := 0
	for _, s := range a.shards {
		h += s.Held()
	}
	return h
}

// Probeables implements longlived.Arena: the union of every shard's
// structures (labels are disjoint by the per-shard prefix).
func (a *Arena) Probeables() map[string]shm.Probeable {
	m := make(map[string]shm.Probeable)
	for _, s := range a.shards {
		for label, pr := range s.Probeables() {
			m[label] = pr
		}
	}
	return m
}

// Clock implements longlived.Arena: nil, since level ladders, fixed or
// elastic, need no external clocking.
func (a *Arena) Clock() func() { return nil }
