package shm

// Word lease records: the one-holder layout of the lease layer.
//
// When every claim of an arena carries the same holder — one public Arena
// handle, one lease cache — 64 per-name stamps of a bitmap word say the
// same thing 64 times. The word layout keeps one 16-byte record per
// 64-name bitmap word instead, in the name space's own allocation right
// after its bitmap, so a level's records are installed by its first claim
// and dropped with it:
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
	"math/bits"
	"sync/atomic"
)

// recordCells is the number of 8-byte cells of one word record, and
// recLease and recOwned index them.
const (
	recordCells = 2
	recLease    = 0
	recOwned    = 1
)

// NewWordStamps returns an all-clear word-layout stamp array over the
// names of levels, laid end to end from name 0: one lease word and one
// owned mask per 64-name bitmap word, kept in the allocation of the level
// the word belongs to. Each level is attached here (its local name i is
// array name base+i), so every level but the last must hold whole words,
// and each must own its storage and be unclaimed: the first claim then
// installs its bitmap and records together. The array keeps levels — a
// ladder's own level slice — to find a word's records, and has no storage
// of its own. epochs is the lease clock the holder's claims and releases
// date their renewals with.
func NewWordStamps(label string, levels []*NameSpace, epochs EpochSource) *Stamps {
	if epochs == nil {
		panic("shm: word stamps need an epoch source")
	}
	if len(levels) == 0 {
		panic(fmt.Sprintf("shm: word stamps %q need a name space", label))
	}
	st := &Stamps{label: label, id: InternSpace(label), perWord: true, epochs: epochs, levels: levels}
	for i, s := range levels {
		if st.size&63 != 0 {
			panic(fmt.Sprintf("shm: word stamps %q attach at word boundaries, got level %d at name %d", label, i, st.size))
		}
		if s.allocation() != nil {
			panic(fmt.Sprintf("shm: word stamps %q need unclaimed spaces that own their storage, got %q", label, s.label))
		}
		s.stamps, s.stampBase = st, st.size
		st.size += s.size
	}
	return st
}

// level returns the space holding word slot w's record and w's word within
// it: the last level starting at or below w.
func (st *Stamps) level(w int) (*NameSpace, int) {
	i := len(st.levels) - 1
	for i > 0 && st.levels[i].stampBase>>6 > w {
		i--
	}
	s := st.levels[i]
	return s, w - s.stampBase>>6
}

// record returns word slot w's record, or nil while its level has no
// allocation: an unclaimed level holds no lease and no owned name.
func (st *Stamps) record(w int) *[recordCells]atomic.Uint64 {
	s, local := st.level(w)
	return s.record(local)
}

// residentRecord returns word slot w's record, installing its level's
// allocation on first write.
func (st *Stamps) residentRecord(w int) *[recordCells]atomic.Uint64 {
	s, local := st.level(w)
	return recordIn(s.resident(), s.Words(), local)
}

// record returns local word w's record in the space's allocation, or nil
// while none is installed. Spaces under word stamps only.
func (s *NameSpace) record(w int) *[recordCells]atomic.Uint64 {
	if ws := s.allocation(); ws != nil {
		return recordIn(ws, s.Words(), w)
	}
	return nil
}

// recordIn returns the record of word w in an allocation whose bitmap has
// words words: the records follow the bitmap, recordCells per word.
func recordIn(ws []atomic.Uint64, words, w int) *[recordCells]atomic.Uint64 {
	c := words + recordCells*w
	return (*[recordCells]atomic.Uint64)(ws[c : c+recordCells])
}

// casLease swaps word w's lease from old to next. An unclaimed level holds
// zero leases, so only a swap from zero installs it; a swap expecting any
// other value fails there without allocating.
func (st *Stamps) casLease(w int, old, next uint64) bool {
	if old == 0 {
		return st.residentRecord(w)[recLease].CompareAndSwap(0, next)
	}
	rec := st.record(w)
	return rec != nil && rec[recLease].CompareAndSwap(old, next)
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
	if rec := st.record(w); rec != nil {
		return rec[recOwned].Load()
	}
	return 0
}

// InjectOwned stores a raw owned mask for word w, installing its level,
// bypassing the protocol: fault injection only, like Inject.
func (st *Stamps) InjectOwned(w int, mask uint64) {
	st.residentRecord(w)[recOwned].Store(mask)
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
// mirrors: one step, on the bitmap's own operation space.
func (st *Stamps) BitsWord(p *Proc, w int) uint64 {
	s, local := st.level(w)
	valid := s.validBits(local)
	p.Step(Op{Kind: OpRead, Space: s.id, Index: int32(local << 6)})
	return s.load(local) & valid
}

// renew CASes lease to holder@now, from the holder's own lease or, when
// claim is set, from a claimable state. It never dates the lease earlier
// than the epoch it replaces. It reports false when the lease is neither
// (suspect, quarantine, a foreign holder — or claimable, for a release).
func (st *Stamps) renew(lease *atomic.Uint64, holder uint64, claim bool) bool {
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

// publishWord grants the won bits mask of local bitmap word w to holder:
// two steps, the lease CAS and the owned OR on the word's record. A false
// result means the lease refused the claim; the caller walks away from the
// bits without touching them.
func (s *NameSpace) publishWord(p *Proc, w int, mask, holder uint64) bool {
	st, slot := s.stamps, s.stampBase>>6+w
	st.step(p, OpTAS, slot)
	rec := recordIn(s.resident(), s.Words(), w)
	if !st.renew(&rec[recLease], holder, true) {
		return false
	}
	st.step(p, OpTAS, slot)
	rec[recOwned].Or(mask)
	return true
}

// retireWord retires holder's names mask of local bitmap word w ahead of
// freeing their bits: two steps, the lease CAS and the owned clear. A
// false result means the word was reclaimed from the holder, or its level
// never claimed: the caller must not clear the bits.
func (s *NameSpace) retireWord(p *Proc, w int, mask, holder uint64) bool {
	st, slot := s.stamps, s.stampBase>>6+w
	st.step(p, OpClear, slot)
	rec := s.record(w)
	if rec == nil || !st.renew(&rec[recLease], holder, false) {
		return false
	}
	st.step(p, OpClear, slot)
	rec[recOwned].And(^mask)
	return true
}

// RefreshWord renews holder's lease on word w to epoch: one step. It never
// dates the lease earlier than it is, and reports false when the word is
// not leased to holder.
func (st *Stamps) RefreshWord(p *Proc, w int, holder, epoch uint64) bool {
	st.step(p, OpTAS, w)
	rec := st.record(w)
	return rec != nil && refreshLease(&rec[recLease], holder, epoch)
}

// refreshWords is RefreshHolder on word records: one RefreshWord step per
// word of a claimed level that holder leases and that holds names.
func (st *Stamps) refreshWords(p *Proc, holder, epoch uint64) int {
	renewed := 0
	for _, s := range st.levels {
		ws := s.allocation()
		if ws == nil {
			continue
		}
		for w := range s.Words() {
			rec := recordIn(ws, s.Words(), w)
			if h, _ := UnpackStamp(rec[recLease].Load()); h != holder {
				continue
			}
			if owned := rec[recOwned].Load(); owned != 0 {
				st.step(p, OpTAS, s.stampBase>>6+w)
				if refreshLease(&rec[recLease], holder, epoch) {
					renewed += bits.OnesCount64(owned)
				}
			}
		}
	}
	return renewed
}

// refreshLease CASes a lease of holder's to holder@epoch, never dating it
// earlier than it is; false when the lease is not holder's.
func refreshLease(lease *atomic.Uint64, holder, epoch uint64) bool {
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
	st.residentRecord(w)[recOwned].Or(held)
	st.step(p, OpTAS, w)
	st.casLease(w, PackStamp(HolderSuspect, epoch), PackStamp(HolderOrphan, epoch))
	return true
}

// BeginReclaimWord CASes the exact stale lease a sweep observed on word w
// to a suspect mark: one step. False means the lease moved and the reclaim
// must be abandoned.
func (st *Stamps) BeginReclaimWord(p *Proc, w int, observed, epoch uint64) bool {
	st.step(p, OpTAS, w)
	return st.casLease(w, observed, PackStamp(HolderSuspect, epoch))
}

// TakeOwned swaps word w's owned mask to zero and returns it: one step. A
// reclaim calls it under its suspect mark, then clears exactly these bits.
func (st *Stamps) TakeOwned(p *Proc, w int) uint64 {
	st.step(p, OpClear, w)
	if rec := st.record(w); rec != nil {
		return rec[recOwned].Swap(0)
	}
	return 0
}

// FinishReclaimWord retires the suspect mark installed at suspectEpoch to
// a claimable tombstone: one step.
func (st *Stamps) FinishReclaimWord(p *Proc, w int, suspectEpoch, epoch uint64) bool {
	st.step(p, OpTAS, w)
	return st.casLease(w, PackStamp(HolderSuspect, suspectEpoch), PackStamp(HolderTomb, epoch))
}

// DropWord CASes a residual lease of an empty word to zero: one step.
func (st *Stamps) DropWord(p *Proc, w int, observed uint64) bool {
	st.step(p, OpClear, w)
	return st.casLease(w, observed, 0)
}

// QuarantineWord CASes the lease the scrubber observed on word w to a
// quarantine mark: one step. Claims and releases in the word then walk
// away, so its bits stay set and its names out of circulation.
func (st *Stamps) QuarantineWord(p *Proc, w int, observed, epoch uint64) bool {
	st.step(p, OpTAS, w)
	return st.casLease(w, observed, PackStamp(HolderQuarantine, epoch))
}
