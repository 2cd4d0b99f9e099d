package shm

// Word-granular claim engine.
//
// The paper's cost model charges one shared-memory operation per probed TAS
// register, and the packed bitmap of NameSpace pays exactly that: TryClaim
// examines one bit per step even though the containing atomic.Uint64 word it
// CASes already holds 64 names. The word ops below charge the same single
// step for the same single atomic read-modify-write on the containing word —
// but harvest the whole 64-bit snapshot: read the word once, pick free bits
// with bit tricks (TrailingZeros64 / OnesCount64), and claim one bit, up to
// 64 bits, or an arbitrary mask in one CAS. In the model's terms this is the
// fetch-and-or / LL-SC strengthening of the per-bit TAS object: still one
// access to one shared register per step, with word-granular return value.
//
// ClaimMask is also the lever behind the word-block lease caches (package
// leasecache): a cache leases an entire 64-name block with one masked CAS
// and then serves acquires thread-locally, so the per-block step here is
// amortized across up to 64 zero-step fast-path acquires.
//
// Saturation hints: every NameSpace additionally maintains a summary bitmap
// (one bit per bitmap word, set when a claim op observed the word full or
// its own CAS filled it, cleared by every release touching the word).
// Reading the summary costs no process step — like the adversary's Probe it
// is a performance hint, never a correctness input: hints can go stale when
// a release races a claim, so callers may use them to steer random probes
// (ProbeWord) and to skip words in sweeps (OpenWords), but deterministic
// fallback scans must consult the words themselves.

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"shmrename/internal/prng"
)

// HintBits is a lock-free advisory bitmap: one bit per tracked object,
// set when the object was observed saturated and cleared when it reopens.
// Reads and writes are racy by design — a Set racing a Clear can leave a
// stale bit either way — so a HintBits value may redirect probes or order
// scans, but must never gate a correctness-critical fallback. The name
// space's per-word saturation summary and the sharded frontend's
// per-shard occupancy hints are both instances.
type HintBits struct {
	words []atomic.Uint64
	// last is the mask of the tracked bits of the final word (all ones
	// when n is a multiple of 64), precomputed for NameSpace.OpenWords.
	last uint64
}

// NewHintBits returns an all-clear hint bitmap over n objects.
func NewHintBits(n int) *HintBits {
	return &HintBits{
		words: make([]atomic.Uint64, (n+63)/64),
		last:  ^uint64(0) >> (uint(-n) & 63),
	}
}

// Set records that object i was observed saturated.
func (h *HintBits) Set(i int) {
	h.words[i>>6].Or(1 << (uint(i) & 63))
}

// Clear drops the hint for object i. The load keeps the common path
// read-only on the hint line when the bit is already clear.
func (h *HintBits) Clear(i int) {
	w := &h.words[i>>6]
	if mask := uint64(1) << (uint(i) & 63); w.Load()&mask != 0 {
		w.And(^mask)
	}
}

// Get reports the hint for object i. A true result may be stale.
func (h *HintBits) Get(i int) bool {
	return h.words[i>>6].Load()&(1<<(uint(i)&63)) != 0
}

// Reset clears every hint. Only safe when no processes are running.
func (h *HintBits) Reset() {
	for i := range h.words {
		h.words[i].Store(0)
	}
}

// SetAll marks every tracked object saturated in one pass. The elastic
// arena uses it when a level starts draining: forcing the whole level's
// saturation summary makes word-granular probes skip it at zero step cost
// while stragglers still inside a pass revalidate against the level state.
// Like every hint write it is advisory — a concurrent Clear can reopen a
// bit, and correctness never depends on the hints.
func (h *HintBits) SetAll() {
	for i := range h.words {
		h.words[i].Store(^uint64(0))
	}
}

// Words returns the number of bitmap words; word w covers the names
// [64w, min(64w+64, Size())).
func (s *NameSpace) Words() int { return (s.size + 63) / 64 }

// SaturateAll forces every word-saturation hint of the space, so
// word-granular probes skip the whole space at zero step cost until a
// release reopens a word. Advisory only (see HintBits.SetAll); the elastic
// arena calls it when a level starts draining.
func (s *NameSpace) SaturateAll() { s.sat.SetAll() }

// DesaturateAll clears every word-saturation hint of the space, reopening
// it to word-granular probes in one pass. Advisory only: a stale clear
// merely costs the next probe one step to re-mark a genuinely full word.
// The elastic arena calls it when a pending drain is cancelled by
// returning demand.
func (s *NameSpace) DesaturateAll() { s.sat.Reset() }

// FootprintBytes returns the storage the space has allocated so far: its
// saturation-hint summary, plus the bitmap words (padding included) once a
// claim has installed them. A diagnostic for memory-proportionality claims
// (the arenas' resident-bytes reports), not a process step.
func (s *NameSpace) FootprintBytes() int {
	return (len(s.bitmap()) + len(s.sat.words)) * 8
}

// wordSlot returns the bitmap slot and the valid-bit mask of bitmap word w
// (the final word of a non-multiple-of-64 space is partial).
func (s *NameSpace) wordSlot(w int) (int, uint64) {
	if uint(w) >= uint(s.Words()) {
		panic(fmt.Sprintf("shm: word %d outside space %q of %d words", w, s.label, s.Words()))
	}
	valid := ^uint64(0)
	if rem := s.size - w<<6; rem < 64 {
		valid = 1<<uint(rem) - 1
	}
	return w * s.stride, valid
}

// OpenWords returns which of bitmap words 64i..64i+63 are not hinted
// saturated, as a bit mask (bit j is word 64i+j), without spending a
// process step. Like every hint it may be stale, so it may skip words of a
// sweep but never gate a fallback scan.
func (s *NameSpace) OpenWords(i int) uint64 {
	open := ^s.sat.words[i].Load()
	if i == len(s.sat.words)-1 {
		open &= s.sat.last
	}
	return open
}

// Saturated reports whether every word of the space is hinted full. It
// inlines (one load for up to 64 words), so probe loops skip a saturated
// level without a ProbeWord call. Advisory like OpenWords.
func (s *NameSpace) Saturated() bool {
	for i := range s.sat.words {
		if s.OpenWords(i) != 0 {
			return false
		}
	}
	return true
}

// wrapRows packs, for a window of c = 1..4 open words, each draw d = 0..3
// wrapped around it (d mod c) as a 2-bit field at bit 8c+2d: a wrap is two
// shifts, with no memory load or branch.
const wrapRows = 0xE424440000

// ProbeWord picks the bitmap word of one word probe. Narrow (wide false),
// it is the lowest word not hinted saturated: first fit, for a process that
// has lost no claim (Proc.LostClaim). Wide, it is one of the 4 lowest
// such words, chosen by the top bits of the draw and wrapping around when
// fewer are open, which spreads claimants that contend over a few CAS
// targets while holders still pack into the lowest words. Either way it
// consumes exactly one r.Uint64(), so a process's generator stream does not
// depend on the mode, and it returns -1, drawing nothing, when every word
// is hinted. A claim that finds its word full hints it, so the next probe
// moves on to the next open words. No process step; a stale hint only
// moves a probe.
func (s *NameSpace) ProbeWord(r *prng.Rand, wide bool) int {
	last := len(s.sat.words) - 1
	for i := 0; i <= last; i++ {
		open := s.OpenWords(i)
		if open == 0 {
			continue
		}
		if !wide {
			r.Uint64()
			return i<<6 + bits.TrailingZeros64(open)
		}
		// Everything but the final pick is computed before the draw, and
		// the shift counts are masked so they need no overflow checks.
		c := bits.OnesCount64(open)
		row := uint64(wrapRows) >> (8 * uint(min(c, 4)) & 63)
		d := uint(r.Uint64() >> 62) // top 2 bits: one of 4 words
		if i < last && int(d) >= c {
			return s.probeAcross(i, int(d))
		}
		// Clear the k open words below the drawn one without branching on
		// the draw, which would mispredict: (k+j)>>2 is 1 iff k >= 4-j.
		k := row >> (2 * d & 63) & 3
		at := open
		at &= at - (k+3)>>2
		at &= at - (k+2)>>2
		at &= at - (k+1)>>2
		return i<<6 + bits.TrailingZeros64(at)
	}
	return -1
}

// probeAcross serves a ProbeWord draw d that lies past the open words of
// summary word i: the window continues into the following summary words,
// and d wraps around it when fewer than d+1 words are open in all.
func (s *NameSpace) probeAcross(i, d int) int {
	var window [4]int
	n := 0
	for ; i < len(s.sat.words) && n <= d; i++ {
		for open := s.OpenWords(i); open != 0 && n <= d; open &= open - 1 {
			window[n] = i<<6 + bits.TrailingZeros64(open)
			n++
		}
	}
	if n == 0 { // every hint was set since ProbeWord read them
		return -1
	}
	return window[wrapRows>>((8*uint(n)+2*uint(d))&63)&3]
}

// lowestBits returns the k lowest set bits of m (all of m if it has fewer).
func lowestBits(m uint64, k int) uint64 {
	if k >= bits.OnesCount64(m) {
		return m
	}
	out := uint64(0)
	for ; k > 0; k-- {
		b := m & -m
		out |= b
		m ^= b
	}
	return out
}

// claimLowest is the shared CAS loop of the word claim ops: one process
// step, then claim the up-to-k lowest free bits of word w that lie in mask.
// It returns the claimed bits (0 when no masked bit was free) and marks the
// saturation hint when the word is full: observed full, or filled by this
// claim's own CAS. Setting it on the filling claim means churn never pays
// a failed step to rediscover a full word, and first-fit sweeps skip
// freshly leased blocks at no step cost.
func (s *NameSpace) claimLowest(p *Proc, w int, mask uint64, k int) uint64 {
	at, valid := s.wordSlot(w)
	mask &= valid
	p.Step(Op{Kind: OpTAS, Space: s.id, Index: int32(w << 6)})
	ptr := &s.resident()[at]
	for {
		cur := ptr.Load()
		free := ^cur & mask
		if free == 0 {
			if ^cur&valid == 0 {
				s.sat.Set(w)
			}
			return 0
		}
		pick := lowestBits(free, k)
		if ptr.CompareAndSwap(cur, cur|pick) {
			if ^(cur|pick)&valid == 0 {
				s.sat.Set(w)
			}
			return pick
		}
	}
}

// ClaimFirstFree claims the lowest free name of bitmap word w in one CAS:
// snapshot the word, pick the first clear bit with TrailingZeros64, set it.
// Exactly one step — one atomic read-modify-write on the containing word,
// the same access a single-bit TryClaim performs — regardless of how many
// of the word's 64 names it had to look past. It returns the claimed name,
// or -1 if the word was full (which also sets the saturation hint).
func (s *NameSpace) ClaimFirstFree(p *Proc, w int) int {
	won := s.claimLowest(p, w, ^uint64(0), 1)
	if won == 0 {
		return -1
	}
	return w<<6 + bits.TrailingZeros64(won)
}

// ClaimUpTo claims the min(k, free) lowest free names of bitmap word w in
// one CAS and returns them as a bit mask over the word (0 when the word was
// full). One step, like ClaimFirstFree: this is the batch-claim primitive —
// up to 64 names per shared-memory access.
func (s *NameSpace) ClaimUpTo(p *Proc, w int, k int) uint64 {
	if k <= 0 {
		return 0
	}
	return s.claimLowest(p, w, ^uint64(0), k)
}

// ClaimMask claims the free subset of mask within bitmap word w in one CAS
// and returns exactly the bits it won. Bits of the word outside mask are
// never modified, no matter how the word changes concurrently. One step.
func (s *NameSpace) ClaimMask(p *Proc, w int, mask uint64) uint64 {
	return s.claimLowest(p, w, mask, 64)
}

// FreeMask clears every mask bit of bitmap word w — the batch release: up
// to 64 names returned to the pool in one atomic AND. One step (an OpClear,
// like Free). Clearing bits that are already free is a no-op, matching
// Free's semantics. The word's saturation hint is dropped.
func (s *NameSpace) FreeMask(p *Proc, w int, mask uint64) {
	at, valid := s.wordSlot(w)
	p.Step(Op{Kind: OpClear, Space: s.id, Index: int32(w << 6)})
	s.clear(at, mask&valid)
	s.sat.Clear(w)
}

// Stamped claim variants: the crash-recoverable forms of the word ops.
// Each wins bits exactly as its unstamped counterpart — the one-CAS fast
// path on the bitmap word is untouched — and then publishes the winner's
// lease stamp on every won name (one extra step per name, on the stamp
// space; see lease.go for the protocol). A publish that loses to a racing
// reclaim walks away from that bit without touching it: the bit now belongs
// to the reclaim path or a successor, never to this claimant.

// ClaimFirstFreeStamped claims the lowest free name of bitmap word w and
// publishes stamp on it. Names whose publish is lost to a racing reclaim
// are skipped (the loop claims the word's next free bit). It returns the
// claimed-and-published name, or -1 if the word ran out of free bits.
func (s *NameSpace) ClaimFirstFreeStamped(p *Proc, w int, stamp uint64) int {
	for {
		n := s.ClaimFirstFree(p, w)
		if n < 0 {
			return -1
		}
		if s.publish(p, n, stamp) {
			return n
		}
	}
}

// ClaimUpToStamped claims the min(k, free) lowest free names of bitmap word
// w and publishes stamp on each; bits whose publish is lost to a racing
// reclaim are dropped from the returned mask (and left to the reclaim
// path). It returns the mask of names actually granted.
func (s *NameSpace) ClaimUpToStamped(p *Proc, w, k int, stamp uint64) uint64 {
	return s.publishMask(p, w, s.ClaimUpTo(p, w, k), stamp)
}

// ClaimMaskStamped claims the free subset of mask within bitmap word w and
// publishes stamp on each won name, dropping publish-lost bits exactly as
// ClaimUpToStamped does.
func (s *NameSpace) ClaimMaskStamped(p *Proc, w int, mask, stamp uint64) uint64 {
	return s.publishMask(p, w, s.ClaimMask(p, w, mask), stamp)
}

// publishMask publishes stamp on every name of a won word mask, returning
// the subset that was actually granted.
func (s *NameSpace) publishMask(p *Proc, w int, won, stamp uint64) uint64 {
	granted := won
	for rest := won; rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		if !s.publish(p, w<<6+b, stamp) {
			granted &^= 1 << b
		}
	}
	return granted
}

// FreeMaskStamped retires holder's leases on the masked names of bitmap
// word w and frees exactly the bits whose lease was still the holder's: a
// name reclaimed out from under the holder is NOT cleared (it may already
// be re-granted). It returns the mask of bits actually freed. Cost: one
// stamp-clear step per name plus one word-clear step.
func (s *NameSpace) FreeMaskStamped(p *Proc, w int, mask uint64, holder uint64) uint64 {
	kept := mask
	for rest := mask; rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		if !s.stamps.ClearOwned(p, s.stampBase+w<<6+b, holder) {
			kept &^= 1 << b
			continue
		}
		s.stamps.maybeCrash(p, CrashMidRelease, s.stampBase+w<<6+b)
	}
	if kept != 0 {
		s.FreeMask(p, w, kept)
	}
	return kept
}

// publish installs stamp on local name n through the attached stamp array,
// consulting the fault-injection hook in the bit-won/stamp-unpublished
// window first (harness experiment E18's post-claim crash point).
func (s *NameSpace) publish(p *Proc, n int, stamp uint64) bool {
	s.stamps.maybeCrash(p, CrashPrePublish, s.stampBase+n)
	return s.stamps.Publish(p, s.stampBase+n, stamp)
}

// TryClaimStamped is the per-bit stamped claim: a TryClaim of name i
// followed by the lease publish. A publish lost to a racing reclaim
// reports false exactly like a lost TAS — the bit is not the claimant's.
func (s *NameSpace) TryClaimStamped(p *Proc, i int, stamp uint64) bool {
	return s.TryClaim(p, i) && s.publish(p, i, stamp)
}

// FreeStamped retires holder's lease on name i and frees the bit only if
// the lease was still the holder's, reporting whether it freed anything.
func (s *NameSpace) FreeStamped(p *Proc, i int, holder uint64) bool {
	if !s.stamps.ClearOwned(p, s.stampBase+i, holder) {
		return false
	}
	s.stamps.maybeCrash(p, CrashMidRelease, s.stampBase+i)
	s.Free(p, i)
	return true
}

// ClaimFirstFreeRangeStamped claims-and-publishes the lowest free name in
// [lo, hi), retrying past publish-lost bits, or returns -1 when the range
// ran out of free words.
func (s *NameSpace) ClaimFirstFreeRangeStamped(p *Proc, lo, hi int, stamp uint64) int {
	for {
		n := s.ClaimFirstFreeRange(p, lo, hi)
		if n < 0 {
			return -1
		}
		if s.publish(p, n, stamp) {
			return n
		}
	}
}

// ClaimFirstFreeRange claims the lowest free name in [lo, hi) using word
// snapshots: one step per word examined instead of one per name, so a range
// of r names costs at most ⌈r/64⌉+1 steps. It returns the claimed name or
// -1 if every word in the range was observed full.
func (s *NameSpace) ClaimFirstFreeRange(p *Proc, lo, hi int) int {
	if lo < 0 || hi > s.size || lo > hi {
		panic(fmt.Sprintf("shm: range [%d,%d) outside space %q of %d", lo, hi, s.label, s.size))
	}
	for w := lo >> 6; w<<6 < hi; w++ {
		mask := ^uint64(0)
		if base := w << 6; base < lo {
			mask &= ^uint64(0) << (uint(lo) & 63)
		}
		if end := w<<6 + 64; end > hi {
			mask &= 1<<(uint(hi-w<<6)) - 1
		}
		if won := s.claimLowest(p, w, mask, 1); won != 0 {
			return w<<6 + bits.TrailingZeros64(won)
		}
	}
	return -1
}
