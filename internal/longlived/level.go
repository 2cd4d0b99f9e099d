package longlived

import (
	"fmt"
	"math/bits"
	"sort"

	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// The level ladder's shape, shared by LevelArena and ElasticArena: the
// LevelArray (arXiv:1405.5461) probes each level a constant number of
// times before falling through, and the smallest level is one word.
const (
	// levelProbes is the number of random probes per non-backstop level
	// before an acquire falls through to the next.
	levelProbes = 4
	// levelBase is the size of the smallest level: one packed bitmap word.
	levelBase = 64
)

// LevelConfig parameterizes a LevelArena.
type LevelConfig struct {
	// MaxPasses bounds full Acquire passes before reporting the arena
	// full; 0 means unlimited (simulated runs rely on the scheduler's step
	// budget instead).
	MaxPasses int
	// WordScan enables the word-granular claim engine: probes target
	// bitmap words instead of single bits (one snapshot-scan-CAS claims the
	// first free name of 64 in one step), the backstop scans words instead
	// of names, probes take each level's lowest word not hinted full until
	// a claim is lost and then draw among its 4 lowest
	// (shm.NameSpace.ProbeWord, shm.Proc.LostClaim), and batch acquires
	// claim up to 64 names per step. Off by default: the per-bit probe
	// path is the deterministic-mode contract whose golden fingerprints
	// (and the paper's per-TAS cost model) stay bit-identical across
	// refactors.
	WordScan bool
	// Padded lays level bitmaps out one word per cache line for native
	// runs on real cores; leave false for simulated runs.
	Padded bool
	// Lease enables the crash-recovery stamp layer (see LeaseOpts): every
	// claim publishes a holder/epoch lease stamp and every release retires
	// it, at one extra step per name each way, so a recovery sweep can
	// reclaim names whose holder crashed. Nil (the default) costs nothing.
	Lease *LeaseOpts
	// Label prefixes the operation-space labels. Default "arena".
	Label string
}

func (c *LevelConfig) fill() {
	if c.Label == "" {
		c.Label = "arena"
	}
}

// LevelArena is the LevelArray-style long-lived arena: levels of
// geometrically growing word-packed TAS bitmaps, with level 0 the smallest
// and the final backstop level sized to the full capacity. Acquire probes
// each level a few times at random and falls through; since at most
// capacity-1 other clients hold slots, the backstop always has a free slot,
// and a deterministic scan of it is the termination guarantee. Release
// clears the slot's bit (shm.OpClear), making the name immediately
// reusable.
//
// Names are numbered level 0 first, so low occupancy concentrates issued
// names near 0: with k concurrent holders the random probes w.h.p. place
// everyone within the first O(log k) levels, whose sizes sum to O(k) — the
// long-lived analogue of adaptive tight renaming. With WordScan, a probe
// takes the lowest open word of its level, and draws among the 4 lowest
// only once its proc has lost a claim (shm.NameSpace.ProbeWord), so
// holders also pack into the low words of the level they reach. A level's
// bitmap and stamp pages become resident on its first claim, so the
// arena's memory follows the same O(k) prefix.
type LevelArena struct {
	cfg    LevelConfig
	levels []*shm.NameSpace
	base   []int // base[i] = first global name of level i
	bound  int
	cap    int
	// stamps is the lease-stamp array of the crash-recovery layer, indexed
	// by global name across all levels; nil when LevelConfig.Lease is off.
	stamps *shm.Stamps
}

var _ Arena = (*LevelArena)(nil)
var _ Recoverable = (*LevelArena)(nil)
var _ registry.BlockAcquirer = (*LevelArena)(nil)

// NewLevel builds a level arena guaranteeing capacity concurrent holders.
func NewLevel(capacity int, cfg LevelConfig) *LevelArena {
	if capacity < 1 {
		panic("longlived: capacity must be >= 1")
	}
	cfg.fill()
	mkSpace := shm.NewNameSpace
	if cfg.Padded {
		mkSpace = shm.NewNameSpacePadded
	}
	a := &LevelArena{cfg: cfg, cap: capacity}
	// Geometric ladder: levelBase, 2·levelBase, ... strictly below
	// capacity, then the capacity-sized backstop.
	for size := levelBase; size < capacity; size *= 2 {
		a.addLevel(mkSpace, size)
	}
	a.addLevel(mkSpace, capacity)
	if cfg.Lease.enabled() {
		a.stamps = shm.NewStamps(cfg.Label+":lease", a.bound)
		for li, lvl := range a.levels {
			lvl.AttachStamps(a.stamps, a.base[li])
		}
	}
	return a
}

func (a *LevelArena) addLevel(mk func(string, int) *shm.NameSpace, size int) {
	label := fmt.Sprintf("%s:L%d", a.cfg.Label, len(a.levels))
	a.levels = append(a.levels, mk(label, size))
	a.base = append(a.base, a.bound)
	a.bound += size
}

// Label implements Arena.
func (a *LevelArena) Label() string {
	scan := "bit"
	if a.cfg.WordScan {
		scan = "word"
	}
	return fmt.Sprintf("level-array(levels=%d,probes=%d,scan=%s)", len(a.levels), levelProbes, scan)
}

// Capacity implements Arena.
func (a *LevelArena) Capacity() int { return a.cap }

// NameBound implements Arena.
func (a *LevelArena) NameBound() int { return a.bound }

// Levels returns the number of levels (diagnostics).
func (a *LevelArena) Levels() int { return len(a.levels) }

// ResidentBytes implements registry.Footprint: the storage allocated so
// far — every level's saturation hints, the bitmap of each level a claim
// has reached, and the lease-stamp pages written so far with their page
// table. It grows toward the full ladder as holders reach deeper levels;
// BENCH_6.json compares the elastic arena against a fixed one that has
// claimed in every level.
func (a *LevelArena) ResidentBytes() int64 {
	var b int64
	for _, s := range a.levels {
		b += int64(s.FootprintBytes())
	}
	if a.stamps != nil {
		b += a.stamps.ResidentBytes()
	}
	return b
}

// Leased reports whether the crash-recovery lease layer is on.
func (a *LevelArena) Leased() bool { return a.stamps != nil }

// leaseStamp returns the proc's current lease stamp, or 0 with leases off.
// Computed once per operation: one epoch read covers the whole pass.
func (a *LevelArena) leaseStamp(p *shm.Proc) uint64 {
	if a.stamps == nil {
		return 0
	}
	return a.cfg.Lease.stamp(p)
}

// tryClaim is TryClaim or its stamped variant, per the lease layer.
func (a *LevelArena) tryClaim(p *shm.Proc, lvl *shm.NameSpace, i int, stamp uint64) bool {
	if stamp == 0 {
		return lvl.TryClaim(p, i)
	}
	return lvl.TryClaimStamped(p, i, stamp)
}

// Acquire implements Arena: random probes down the ladder, uniform over
// each level's names, then a deterministic backstop scan; repeat up to
// MaxPasses passes. With WordScan the probes and the backstop run
// word-granular and the probes pick each level's lowest open words (see
// acquireWord).
func (a *LevelArena) Acquire(p *shm.Proc) int {
	if a.cfg.WordScan {
		return a.acquireWord(p)
	}
	stamp := a.leaseStamp(p)
	r := p.Rand()
	backstop := len(a.levels) - 1
	for pass := 0; a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses; pass++ {
		for li, lvl := range a.levels {
			for t := 0; t < levelProbes; t++ {
				i := r.Intn(lvl.Size())
				if a.tryClaim(p, lvl, i, stamp) {
					return a.base[li] + i
				}
			}
		}
		// Backstop scan: read first, TAS only slots that looked free. A
		// scan that loses every race means other clients made progress;
		// the next pass retries from the top of the ladder.
		lvl := a.levels[backstop]
		for i := 0; i < lvl.Size(); i++ {
			if lvl.Claimed(p, i) {
				continue
			}
			if a.tryClaim(p, lvl, i, stamp) {
				return a.base[backstop] + i
			}
		}
	}
	return -1
}

// acquireWord is the word-granular Acquire: each probe picks a word of its
// level (shm.ProbeWord, no step) and ClaimFirstFree turns the whole word
// into one snapshot-scan-CAS step. The probe takes the level's lowest open
// word until a claim is lost, and from then on for the rest of the call
// draws among its 4 lowest open words; a proc whose last call lost a claim
// starts wide (shm.Proc.LostClaim). A level whose every word is hinted
// saturated draws nothing and is passed at no step cost (ALGORITHMS.md
// §10). The backstop scans words, not names: capacity/64 steps instead of
// 2×capacity. Hints only steer probes; the backstop reads every word
// itself, so a stale hint (a release racing the claim that set it) can
// never starve the termination guarantee.
func (a *LevelArena) acquireWord(p *shm.Proc) int {
	stamp := a.leaseStamp(p)
	r := p.Rand()
	wide := p.LostClaim()
	p.SetLostClaim(false)
	backstop := len(a.levels) - 1
	for pass := 0; a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses; pass++ {
		for li, lvl := range a.levels {
			if lvl.Saturated() {
				continue
			}
			for t := 0; t < levelProbes; t++ {
				w := lvl.ProbeWord(r, wide)
				if w < 0 {
					break
				}
				if n := claimWord(p, lvl, w, stamp); n >= 0 {
					return a.base[li] + n
				}
				wide = true
				p.SetLostClaim(true)
			}
		}
		lvl := a.levels[backstop]
		for w := 0; w < lvl.Words(); w++ {
			if n := claimWord(p, lvl, w, stamp); n >= 0 {
				return a.base[backstop] + n
			}
		}
	}
	return -1
}

// AcquireN implements Arena. With WordScan the batch is served by
// word-granular bulk claims — ClaimUpTo takes up to 64 free names from a
// probed word in one CAS step — walking the ladder from level 0 with the
// probes of acquireWord (first fit until a claim comes back empty, then
// the window), so batches stay concentrated in the low levels and words;
// the word backstop completes the remainder. Without WordScan it
// degenerates to k independent Acquires (the per-bit probe path has no
// cheaper primitive).
func (a *LevelArena) AcquireN(p *shm.Proc, k int, out []int) []int {
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
	backstop := len(a.levels) - 1
	for pass := 0; k > 0 && (a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses); pass++ {
		for li, lvl := range a.levels {
			if lvl.Saturated() {
				continue
			}
			for t := 0; k > 0 && t < levelProbes; t++ {
				w := lvl.ProbeWord(r, wide)
				if w < 0 {
					break
				}
				won := claimUpTo(p, lvl, w, k, stamp)
				if won == 0 {
					wide = true
					p.SetLostClaim(true)
				}
				out, k = appendMask(out, a.base[li]+w<<6, won, k)
			}
		}
		lvl := a.levels[backstop]
		for w := 0; k > 0 && w < lvl.Words(); w++ {
			out, k = appendMask(out, a.base[backstop]+w<<6, claimUpTo(p, lvl, w, k, stamp), k)
		}
	}
	return out
}

// AcquireBlock implements registry.BlockAcquirer: one first-fit sweep up
// the ladder, claiming up to k of the lowest free names with one ClaimUpTo
// step per word that has room. Words hinted full are skipped at no step
// cost, 64 at a time (NameSpace.OpenWords), and nothing is retried, so the
// sweep is bounded by the ladder's word count and may come back short. It
// runs the word claim engine whatever WordScan selects for Acquire: a block
// is whole bitmap words by construction.
func (a *LevelArena) AcquireBlock(p *shm.Proc, k int, out []int) []int {
	stamp := a.leaseStamp(p)
	for li := 0; k > 0 && li < len(a.levels); li++ {
		lvl := a.levels[li]
		for i := 0; k > 0 && i<<6 < lvl.Words(); i++ {
			for open := lvl.OpenWords(i); k > 0 && open != 0; open &= open - 1 {
				w := i<<6 + bits.TrailingZeros64(open)
				out, k = appendMask(out, a.base[li]+w<<6, claimUpTo(p, lvl, w, k, stamp), k)
			}
		}
	}
	return out
}

// appendMask appends the names encoded by a won word mask (global name =
// wordBase + bit position) and returns the updated slice and remainder.
func appendMask(out []int, wordBase int, won uint64, k int) ([]int, int) {
	for won != 0 {
		b := bits.TrailingZeros64(won)
		won &= won - 1
		out = append(out, wordBase+b)
		k--
	}
	return out, k
}

// locate returns the level holding the global name and its local index.
func (a *LevelArena) locate(name int) (int, int) {
	if name < 0 || name >= a.bound {
		panic(fmt.Sprintf("longlived: name %d outside arena bound %d", name, a.bound))
	}
	li := sort.Search(len(a.base), func(i int) bool { return a.base[i] > name }) - 1
	return li, name - a.base[li]
}

// Release implements Arena. With leases on, the release retires the stamp
// first (CAS mine→0) and only then clears the claim bit; a stamp the
// recovery sweep already reclaimed means the name is no longer ours, and
// the bit is left alone.
func (a *LevelArena) Release(p *shm.Proc, name int) {
	li, i := a.locate(name)
	if a.stamps != nil {
		a.levels[li].FreeStamped(p, i, a.cfg.Lease.holder(p))
		return
	}
	a.levels[li].Free(p, i)
}

// ReleaseN implements Arena: names sharing a bitmap word of a level are
// coalesced into one FreeMask step, so a batch of b word-adjacent names
// costs ⌈b/64⌉ clearing steps instead of b. The input slice is not
// modified; grouping needs sorted names, so an unsorted input is copied
// (already-sorted batches — e.g. the per-shard groups the sharded
// frontend hands down — are grouped in place, no allocation).
func (a *LevelArena) ReleaseN(p *shm.Proc, names []int) {
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
		if a.stamps != nil {
			a.levels[li].FreeMaskStamped(p, w, mask, a.cfg.Lease.holder(p))
		} else {
			a.levels[li].FreeMask(p, w, mask)
		}
		i = j
	}
}

// LeaseDomains implements Recoverable: one domain spanning the whole
// ladder, since the stamp array is laid out by global name. Nil when the
// lease layer is off.
func (a *LevelArena) LeaseDomains() []LeaseDomain {
	if a.stamps == nil {
		return nil
	}
	return []LeaseDomain{{
		Base:   0,
		Stamps: a.stamps,
		IsHeld: a.IsHeld,
		Reclaim: func(p *shm.Proc, i int) {
			li, loc := a.locate(i)
			a.levels[li].Free(p, loc)
		},
		Seize: func(p *shm.Proc, i int) bool {
			li, loc := a.locate(i)
			return a.levels[li].TryClaim(p, loc)
		},
	}}
}

// Touch implements Arena: one read of the name's TAS register.
func (a *LevelArena) Touch(p *shm.Proc, name int) {
	li, i := a.locate(name)
	a.levels[li].Claimed(p, i)
}

// IsHeld implements Arena.
func (a *LevelArena) IsHeld(name int) bool {
	li, i := a.locate(name)
	return a.levels[li].Probe(i)
}

// Held implements Arena.
func (a *LevelArena) Held() int {
	h := 0
	for _, lvl := range a.levels {
		h += lvl.CountClaimed()
	}
	return h
}

// Probeables implements Arena.
func (a *LevelArena) Probeables() map[string]shm.Probeable {
	m := make(map[string]shm.Probeable, len(a.levels))
	for _, lvl := range a.levels {
		m[lvl.Label()] = lvl
	}
	return m
}

// Clock implements Arena: bitmap levels need no hardware clock.
func (a *LevelArena) Clock() func() { return nil }
