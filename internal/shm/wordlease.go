package shm

// Word lease records: the one-holder layout of the lease layer.
//
// When every claim of an arena carries the same holder — one public Arena
// handle, one lease cache — 64 per-name stamps of a bitmap word say the
// same thing 64 times. The word layout keeps one 16-byte record per
// 64-name bitmap word instead:
//
//   - a lease word in the PackStamp encoding, with the per-name layout's
//     states: 0 (never leased), holder@epoch (the holder's lease, renewed
//     by a heartbeat or by any claim or release in the word), orphan@epoch
//     (a sweep adopted set bits nobody owned), suspect@epoch (a reclaim in
//     progress), tomb@epoch (a reclaim completed) and quarantine@epoch (the
//     scrubber withdrew the word);
//   - an owned mask: the names of the word the lease currently covers.
//
// Invariant: owned ⊆ bitmap. Every transition keeps it:
//
//   - a claim sets its bitmap bit, then CASes the lease from a claimable
//     state ({0, orphan, tomb}) or the holder's own lease to holder@now,
//     then ORs the bit into the owned mask;
//   - a release CASes the lease from the holder's own to holder@now, then
//     clears the owned bit, then the bitmap bit;
//   - a lease CAS that meets a suspect, quarantine or foreign lease fails,
//     and the claimant walks away leaving its bitmap bit set and unowned
//     (a releaser leaves both: its name was reclaimed);
//   - a reclaim CASes the exact stale lease it observed to suspect, takes
//     the owned mask (one swap to zero), clears those bits in the bitmap
//     and retires the lease to tomb. It clears owned bits only: a claimant
//     may have set its bitmap bit before the sweep observed the word and
//     land its lease CAS after the reclaim finished, over the tomb. Had
//     the reclaim cleared that unowned bit, the claimant would own a name
//     whose bit is free, and a second claimant could be granted it too;
//   - set bits under a claimable lease (claimants that walked away or
//     crashed before their lease CAS) are adopted: the lease CASes to a
//     suspect mark, the bitmap word's set bits join the owned mask, and
//     the lease becomes orphan@now, so an in-flight claimant keeps its
//     name by CASing the orphan lease to its own, and an orphan that goes
//     stale is reclaimed like any lease. The mask is read under the mark:
//     read before it, it could name a bit a claim took over the lease and
//     released in between.
//
// A bit the owned mask has and the bitmap lacks therefore arises in no
// legal execution; the integrity scrubber quarantines its word.
//
// Every access to a record is one Proc.Step — the lease CAS and the owned
// update of a claim or release, a heartbeat's renewal, and each read,
// adopt, reclaim, drop or quarantine a sweep or scrub makes — so the
// simulator's adversary interleaves them (TestWordLeaseExplorer in package
// recovery). A lease CAS dates its renewal with a fresh read of the lease
// clock, never earlier than the epoch it replaces, so it always changes a
// lease some sweep observed stale: a reclaim's CAS on the observed value
// then fails.

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// stampSpan maps the word slots [word, word+words) of a word-layout array
// onto the bitmap words of one attached name space.
type stampSpan struct {
	word, words int32
	space       *NameSpace
}

// stampSpanBytes is the resident size of one span table entry.
const stampSpanBytes = int64(unsafe.Sizeof(stampSpan{}))

// NewWordStamps returns an all-clear word-layout stamp array over n names:
// one lease word and one owned mask per 64-name bitmap word, resident on
// first write in pages of 32 words. epochs is the lease clock the holder's
// claims and releases date their renewals with. Names attach at word
// boundaries (NameSpace.AttachStamps), so word w of the array is exactly
// one bitmap word of one attached space.
func NewWordStamps(label string, n int, epochs EpochSource) *Stamps {
	if n < 0 {
		panic("shm: negative stamp array size")
	}
	if epochs == nil {
		panic("shm: word stamps need an epoch source")
	}
	st := &Stamps{label: label, id: InternSpace(label), size: n, perWord: true, epochs: epochs}
	st.pages = make([]atomic.Pointer[[]atomic.Uint64], (st.cells()+63)/64)
	return st
}

// bind records that space s covers names [base, base+s.Size()) of a
// word-layout array.
func (st *Stamps) bind(s *NameSpace, base int) {
	if base&63 != 0 {
		panic(fmt.Sprintf("shm: word stamps %q attach at word boundaries, got base %d", st.label, base))
	}
	st.spans = append(st.spans, stampSpan{word: int32(base >> 6), words: int32(s.Words()), space: s})
}

// WordNames returns the names [lo, hi) that word slot w covers.
func (st *Stamps) WordNames(w int) (lo, hi int) {
	return w << 6, min(w<<6+64, st.size)
}

// Owned returns word w's owned mask without spending a process step
// (diagnostics); 0 in the per-name layout.
func (st *Stamps) Owned(w int) uint64 {
	if !st.perWord {
		return 0
	}
	if c := st.at(2*w + 1); c != nil {
		return c.Load()
	}
	return 0
}

// InjectOwned stores a raw owned mask for word w, bypassing the protocol:
// fault injection only, like Inject.
func (st *Stamps) InjectOwned(w int, mask uint64) {
	st.slot(2*w + 1).Store(mask)
}

// step charges p one access to word w's record.
func (st *Stamps) step(p *Proc, kind OpKind, w int) {
	p.Step(Op{Kind: kind, Space: st.id, Index: int32(w << 6)})
}

// LeaseWord reads word w's lease: one step.
func (st *Stamps) LeaseWord(p *Proc, w int) uint64 {
	st.step(p, OpRead, w)
	return st.Load(w)
}

// OwnedWord reads word w's owned mask: one step.
func (st *Stamps) OwnedWord(p *Proc, w int) uint64 {
	st.step(p, OpRead, w)
	return st.Owned(w)
}

// BitsWord reads the claim bits of the bitmap word that word slot w
// mirrors: one step, on the bitmap's own operation space. A word no
// attached space covers reads as free.
func (st *Stamps) BitsWord(p *Proc, w int) uint64 {
	for _, sp := range st.spans {
		if local := w - int(sp.word); local >= 0 && local < int(sp.words) {
			valid := sp.space.validBits(local)
			p.Step(Op{Kind: OpRead, Space: sp.space.id, Index: int32(local << 6)})
			return sp.space.load(local) & valid
		}
	}
	p.Step(Op{Kind: OpRead, Space: st.id, Index: int32(w << 6)})
	return 0
}

// renew CASes lease cell c to holder@now, from the holder's own lease or,
// when claim is set, from a claimable state. It never dates the lease
// earlier than the epoch it replaces. It reports false when the lease is
// neither (suspect, quarantine, a foreign holder — or claimable, for a
// release).
func (st *Stamps) renew(c int, holder uint64, claim bool) bool {
	lease := st.at(c)
	if lease == nil {
		if !claim {
			return false // an absent page holds no lease
		}
		lease = st.slot(c)
	}
	for {
		cur := lease.Load()
		h, e := UnpackStamp(cur)
		if h != holder && !(claim && StampClaimable(cur)) {
			return false
		}
		now := st.epochs.Now()
		if h == holder {
			now = max(now, e)
		}
		if lease.CompareAndSwap(cur, PackStamp(holder, now)) {
			return true
		}
	}
}

// publishWord grants the won bits mask of word w to holder: two steps, the
// lease CAS and the owned OR. A false result means the lease refused the
// claim; the caller walks away from the bits without touching them.
func (st *Stamps) publishWord(p *Proc, w int, mask, holder uint64) bool {
	st.step(p, OpTAS, w)
	if !st.renew(2*w, holder, true) {
		return false
	}
	st.step(p, OpTAS, w)
	st.slot(2*w + 1).Or(mask)
	return true
}

// retireWord retires holder's names mask of word w ahead of freeing their
// bitmap bits: two steps, the lease CAS and the owned clear. A false result
// means the word was reclaimed from the holder: the caller must not clear
// the bits.
func (st *Stamps) retireWord(p *Proc, w int, mask, holder uint64) bool {
	st.step(p, OpClear, w)
	if !st.renew(2*w, holder, false) {
		return false
	}
	st.step(p, OpClear, w)
	st.at(2*w + 1).And(^mask)
	return true
}

// RefreshWord renews holder's lease on word w to epoch: one step. It never
// dates the lease earlier than it is, and reports false when the word is
// not leased to holder.
func (st *Stamps) RefreshWord(p *Proc, w int, holder, epoch uint64) bool {
	st.step(p, OpTAS, w)
	lease := st.at(2 * w)
	if lease == nil {
		return false
	}
	for {
		cur := lease.Load()
		h, e := UnpackStamp(cur)
		if h != holder {
			return false
		}
		if e >= epoch || lease.CompareAndSwap(cur, PackStamp(holder, epoch)) {
			return true
		}
	}
}

// AdoptWord adopts the set bits of word w that no lease covers: the lease
// CASes from the observed claimable value to a suspect mark, the bitmap
// word is re-read, its set bits join the owned mask, and the lease becomes
// orphan@epoch. Four steps; false when the first CAS lost (a claimant took
// the lease first, or another sweep adopted). The suspect mark holds
// claims and releases off the word while the mask is built, so the mask
// is read after every claim that could still take the lease has walked
// away: an owned bit joins only while its claim bit is set.
func (st *Stamps) AdoptWord(p *Proc, w int, observed, epoch uint64) bool {
	if !st.BeginReclaimWord(p, w, observed, epoch) {
		return false
	}
	held := st.BitsWord(p, w)
	st.step(p, OpTAS, w)
	st.slot(2*w + 1).Or(held)
	st.step(p, OpTAS, w)
	st.cas(2*w, PackStamp(HolderSuspect, epoch), PackStamp(HolderOrphan, epoch))
	return true
}

// BeginReclaimWord CASes the exact stale lease a sweep observed on word w
// to a suspect mark: one step. False means the lease moved and the reclaim
// must be abandoned.
func (st *Stamps) BeginReclaimWord(p *Proc, w int, observed, epoch uint64) bool {
	st.step(p, OpTAS, w)
	return st.cas(2*w, observed, PackStamp(HolderSuspect, epoch))
}

// TakeOwned swaps word w's owned mask to zero and returns it: one step. A
// reclaim calls it under its suspect mark, then clears exactly these bits.
func (st *Stamps) TakeOwned(p *Proc, w int) uint64 {
	st.step(p, OpClear, w)
	if c := st.at(2*w + 1); c != nil {
		return c.Swap(0)
	}
	return 0
}

// FinishReclaimWord retires the suspect mark installed at suspectEpoch to
// a claimable tombstone: one step.
func (st *Stamps) FinishReclaimWord(p *Proc, w int, suspectEpoch, epoch uint64) bool {
	st.step(p, OpTAS, w)
	return st.cas(2*w, PackStamp(HolderSuspect, suspectEpoch), PackStamp(HolderTomb, epoch))
}

// DropWord CASes a residual lease of an empty word to zero: one step.
func (st *Stamps) DropWord(p *Proc, w int, observed uint64) bool {
	st.step(p, OpClear, w)
	return st.cas(2*w, observed, 0)
}

// QuarantineWord CASes the lease the scrubber observed on word w to a
// quarantine mark: one step. Claims and releases in the word then walk
// away, so its bits stay set and its names out of circulation.
func (st *Stamps) QuarantineWord(p *Proc, w int, observed, epoch uint64) bool {
	st.step(p, OpTAS, w)
	return st.cas(2*w, observed, PackStamp(HolderQuarantine, epoch))
}
