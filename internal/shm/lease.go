package shm

// Lease/epoch stamps: the crash-recovery layer of the name space.
//
// The paper's model is crash-prone — processes may stop taking steps at any
// point — but a TAS bit alone cannot tell a live holder from a crashed one:
// a process that dies between claiming and releasing leaks its name forever.
// Stamps add the missing information: alongside the word-packed claim bitmap
// every name has one atomic.Uint64 stamp packing the holder's identity and
// the epoch of its lease. A holder publishes its stamp right after winning
// the bit, refreshes the epoch by heartbeating while it holds the name, and
// clears the stamp just before freeing the bit. A recovery sweep (package
// recovery) can then reclaim names whose stamp's lease expired and whose
// holder is not observably alive.
//
// # Stamp states
//
// A stamp is one of:
//
//   - 0: the name is unheld (or a claim is in flight, see orphans below);
//   - pack(holder, epoch) with a client holder in [1, MaxHolder]: a live
//     lease, renewed by Refresh;
//   - pack(HolderOrphan, epoch): a recovery sweep observed the claim bit set
//     with a zero stamp — a claim in flight, or a holder that crashed
//     between winning the bit and publishing — and adopted the name with a
//     provisional lease so the claimant's stall becomes detectable;
//   - pack(HolderSuspect, epoch): a reaper is mid-reclaim; nobody may adopt
//     or publish over it (a sweep that finds it stale resumes the reclaim —
//     the mark survives even a crashed reaper);
//   - pack(HolderTomb, epoch): the reclaim completed; the stamp slot is
//     claimable again, exactly like 0.
//
// # Why the bit and the stamp cannot race into a double grant
//
// The bit and the stamp are separate words, so they cannot be updated
// atomically; the protocol makes the *stamp* the ownership authority and the
// bitmap the allocation fast path. Granting a name requires (a) winning the
// claim bit and (b) CASing the stamp from a claimable state ({0, orphan,
// tombstone}) to your own. All stamp transitions are CASes on one word, so
// grants, heartbeats, and reclaims serialize per name: a reclaim CASes the
// exact stamp value it observed stale, which fails if the holder refreshed
// concurrently — a live holder racing the reaper never loses its name. A
// claimant whose publish CAS finds a suspect or a foreign holder walks away
// without touching the bit (its claim was superseded by a reclaim) and
// retries elsewhere; see the Stamped claim variants in claim.go.
//
// Step accounting: Publish, Refresh, and ClearOwned are process operations —
// one Proc.Step each, on the stamps' own operation space — so the
// stamped-claim cost delta is visible in the steps/acquire metric (PERF.md).
// Reaper-side transitions (Adopt, BeginReclaim, FinishReclaim, Drop) and
// Load are out-of-band maintenance, like the adversary's Probe: no steps.
//
// All of the above is the per-name layout, kept where a word's names may
// have different holders (per-proc holders, the mmap namespace). An arena
// whose claims all carry one holder keeps one record per bitmap word
// instead, and every access to it is a step (wordlease.go).

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Stamp field widths: holder in the high 24 bits, epoch in the low 40.
// Holder 0 is not a valid client, so any held stamp is nonzero; epochs are
// milliseconds-scale counters, 2^40 of which outlast any deployment.
const (
	stampEpochBits = 40
	stampEpochMask = 1<<stampEpochBits - 1
	stampHolderMax = 1<<24 - 1
)

// Reserved holder identities (the top of the holder range).
const (
	// HolderOrphan marks a provisional lease a sweep adopted for a claim
	// bit observed with a zero stamp (claimant in flight or crashed
	// pre-publish). Claimable only by the bit's winner.
	HolderOrphan = stampHolderMax
	// HolderSuspect marks a reclaim in progress. Never claimable; a sweep
	// finding it stale resumes the reclaim.
	HolderSuspect = stampHolderMax - 1
	// HolderTomb marks a completed reclaim. Claimable, like a zero stamp.
	HolderTomb = stampHolderMax - 2
	// HolderQuarantine marks a name the integrity scrubber (package
	// integrity) withdrew from circulation after detecting irreparable
	// state damage in its bitmap word. Never claimable, never stale: a
	// quarantined name keeps its claim bit set and its quarantine stamp
	// until the namespace is rebuilt. Recovery sweeps skip it explicitly.
	HolderQuarantine = stampHolderMax - 3
	// MaxHolder is the largest valid client holder identity. Client
	// holders lie in [1, MaxHolder]; 0 is reserved so that a zero stamp
	// always means "unheld".
	MaxHolder = stampHolderMax - 4
)

// PackStamp packs a holder identity and a lease epoch into one stamp word.
// Holders above the field width or epochs above 2^40-1 are truncated by
// masking — callers validate client holders against MaxHolder up front.
// PackStamp(h, e) == 0 iff h == 0 && e == 0, and distinct in-range
// (holder, epoch) pairs never alias (see FuzzStampPack).
func PackStamp(holder, epoch uint64) uint64 {
	return (holder&stampHolderMax)<<stampEpochBits | epoch&stampEpochMask
}

// UnpackStamp splits a stamp word into its holder identity and lease epoch.
func UnpackStamp(s uint64) (holder, epoch uint64) {
	return s >> stampEpochBits, s & stampEpochMask
}

// StampClaimable reports whether a publish may claim the stamp slot: it is
// zero, an orphan adoption (only the claim bit's winner can be publishing),
// or a completed-reclaim tombstone.
func StampClaimable(s uint64) bool {
	if s == 0 {
		return true
	}
	h, _ := UnpackStamp(s)
	return h == HolderOrphan || h == HolderTomb
}

// EpochSource supplies lease epochs: a monotonically non-decreasing clock
// shared by holders (heartbeats) and reapers (staleness checks).
type EpochSource interface {
	// Now returns the current epoch.
	Now() uint64
}

// CounterEpochs is a deterministic epoch source: an atomic counter advanced
// explicitly. Tests and harness experiments use it so lease expiry is a
// function of the schedule, not the wall clock.
type CounterEpochs struct {
	c atomic.Uint64
}

// NewCounterEpochs returns a counter epoch source starting at start.
func NewCounterEpochs(start uint64) *CounterEpochs {
	e := new(CounterEpochs)
	e.c.Store(start)
	return e
}

// Now implements EpochSource.
func (e *CounterEpochs) Now() uint64 { return e.c.Load() }

// Advance moves the epoch forward by d and returns the new value.
func (e *CounterEpochs) Advance(d uint64) uint64 { return e.c.Add(d) }

// wallEpochBase anchors wall-clock epochs at 2024-01-01T00:00:00Z so the
// 40-bit millisecond epoch field lasts decades instead of overflowing on
// the unix epoch.
const wallEpochBase = 1704067200000

// WallEpochs is the wall-clock epoch source: one epoch per millisecond
// since a fixed 2024 base. It is the cross-process source — independent OS
// processes sharing an mmap-backed arena agree on it without any shared
// counter word.
type WallEpochs struct{}

// Now implements EpochSource.
func (WallEpochs) Now() uint64 {
	ms := time.Now().UnixMilli() - wallEpochBase
	if ms < 0 {
		return 0
	}
	return uint64(ms) & stampEpochMask
}

// StampStale reports whether a lease epoch has expired: more than ttl
// epochs passed since the stamp's epoch. A zero-ttl lease is stale as soon
// as the clock moves.
func StampStale(now, epoch, ttl uint64) bool {
	return now > epoch && now-epoch > ttl
}

// CrashPoint identifies a protocol point at which a fault-injection hook
// may kill a holder, mirroring the simulator's crash adversary on the
// native path (harness experiment E18).
type CrashPoint uint8

// Injectable crash points. Pre-claim and while-holding crashes need no
// hook — the worker simply stops — so only the two windows *inside* the
// stamped protocol are instrumented.
const (
	// CrashPrePublish kills a claimant after it won the claim bit but
	// before it published its lease stamp: the orphan-adoption path.
	CrashPrePublish CrashPoint = iota
	// CrashMidRelease kills a releaser after it cleared its lease stamp
	// but before it freed the claim bit: the same bit-set/stamp-zero shape
	// as CrashPrePublish, reached from the other side.
	CrashMidRelease
)

// LeaseCrash is the panic value a crash hook raises to unwind a worker at
// an injected fault point. Like shm.Crash it never escapes: the harness
// bodies that install hooks recover it.
type LeaseCrash struct {
	PID   int
	Name  int
	Point CrashPoint
}

// Stamps is a lease-stamp array over n names in one of two layouts. The
// per-name layout (NewStamps, NewStampsBacked) keeps one atomic.Uint64 per
// name, holding the packed (holder, epoch) lease of the name's current
// owner or one of the recovery states documented above, in pages of 64
// names. The word layout (NewWordStamps, wordlease.go) keeps one 16-byte
// record per 64-name bitmap word instead — a lease word in the same
// encoding plus an owned mask — in the allocation of the name space whose
// word it is. Either lives alongside a NameSpace's claim bitmap
// (NameSpace.AttachStamps, NewWordStamps); only the per-name layout may be
// backed by externally owned storage (NewStampsBacked) for mmap
// persistence.
//
// A stamp slot is the unit one stamp word covers: a name in the per-name
// layout, a bitmap word in the word layout (Slots, Load, Inject).
type Stamps struct {
	label string
	id    SpaceID
	size  int
	// perWord selects the word layout; epochs dates its lease renewals and
	// levels are the name spaces holding its records, end to end from name
	// 0: a ladder's own level slice, or one space (wordlease.go).
	perWord bool
	epochs  EpochSource
	levels  []*NameSpace
	// pages, in the per-name layout, holds one pointer per page of 64
	// stamps, nil until the page's first write installs it (see slot).
	pages []atomic.Pointer[[]atomic.Uint64]
	// installed counts the stamps of installed pages.
	installed atomic.Int64
	// hook, when set, is the fault-injection callback consulted at the
	// instrumented crash points; returning true unwinds the worker with a
	// LeaseCrash panic. Test-and-harness-only: nil on every real path.
	hook func(p *Proc, point CrashPoint, name int) bool
}

// NewStamps returns an all-clear stamp array over n names. It is resident
// on first write: it is split into 64-name pages, one per bitmap word, and
// the first Publish, Adopt, Inject or Quarantine on a page installs it. An
// absent page reads as zero stamps — unheld, no lease — so Refresh and
// ClearOwned report false there, and a CAS expecting a nonzero stamp fails
// without allocating.
func NewStamps(label string, n int) *Stamps {
	if n < 0 {
		panic("shm: negative stamp array size")
	}
	return &Stamps{
		label: label,
		id:    InternSpace(label),
		size:  n,
		pages: make([]atomic.Pointer[[]atomic.Uint64], (n+63)/64),
	}
}

// NewStampsBacked returns a stamp array over n names on externally owned
// storage (e.g. a region of an mmap'd file). The backing slice is used in
// place, state and all: opening an existing file preserves its leases.
// Every page is resident from construction.
func NewStampsBacked(label string, n int, words []atomic.Uint64) *Stamps {
	st := NewStamps(label, n)
	if len(words) < n {
		panic(fmt.Sprintf("shm: stamp backing of %d words cannot hold %d names", len(words), n))
	}
	pages := make([][]atomic.Uint64, len(st.pages))
	for k := range pages {
		pages[k] = words[k<<6 : min(k<<6+64, n)]
		st.pages[k].Store(&pages[k])
	}
	st.installed.Store(int64(n))
	return st
}

// page returns the stamps of name i's page, or nil while it is absent.
func (st *Stamps) page(i int) []atomic.Uint64 {
	if pg := st.pages[i>>6].Load(); pg != nil {
		return *pg
	}
	return nil
}

// at returns name i's stamp, or nil while its page is absent (it then
// reads zero).
func (st *Stamps) at(i int) *atomic.Uint64 {
	if pg := st.page(i); pg != nil {
		return &pg[i&63]
	}
	return nil
}

// slot returns name i's stamp, installing its page on first write.
func (st *Stamps) slot(i int) *atomic.Uint64 {
	if pg := st.page(i); pg != nil {
		return &pg[i&63]
	}
	return &st.install(i >> 6)[i&63]
}

// install allocates page k and publishes it with one CAS. Writers racing
// here each allocate, but one CAS wins and the losers write into its page,
// so no stamp lands in a discarded page.
func (st *Stamps) install(k int) []atomic.Uint64 {
	fresh := make([]atomic.Uint64, min(64, st.size-k<<6))
	if st.pages[k].CompareAndSwap(nil, &fresh) {
		st.installed.Add(int64(len(fresh)))
		return fresh
	}
	return *st.pages[k].Load()
}

// cas swaps name i's stamp from old to next. An absent page holds zero
// stamps, so only a swap from zero installs it; a swap expecting any other
// value fails there without allocating.
func (st *Stamps) cas(i int, old, next uint64) bool {
	if old == 0 {
		return st.slot(i).CompareAndSwap(0, next)
	}
	w := st.at(i)
	return w != nil && w.CompareAndSwap(old, next)
}

// Resident reports whether slot s's stamp has storage: its page was
// written, or, in the word layout, its level was claimed (or injected). A
// slot without storage holds no lease (RefreshHolder skips it). No process
// step.
func (st *Stamps) Resident(s int) bool {
	if st.perWord {
		ns, _ := st.level(s)
		return ns.allocation() != nil
	}
	return st.pages[s>>6].Load() != nil
}

// ResidentBytes returns the stamp storage the array allocated itself: the
// page table plus the stamps of every installed page. It is 0 in the word
// layout, whose records live in its spaces' allocations and count in
// their NameSpace.FootprintBytes.
func (st *Stamps) ResidentBytes() int64 {
	return 8 * (int64(len(st.pages)) + st.installed.Load())
}

// Label returns the stamp space's label.
func (st *Stamps) Label() string { return st.label }

// Size returns the number of stamped names.
func (st *Stamps) Size() int { return st.size }

// Slots returns the number of stamp slots: Size() names in the per-name
// layout, ⌈Size()/64⌉ bitmap words in the word layout.
func (st *Stamps) Slots() int {
	if st.perWord {
		return (st.size + 63) / 64
	}
	return st.size
}

// PerWord reports whether the array keeps word records (NewWordStamps)
// rather than per-name stamps.
func (st *Stamps) PerWord() bool { return st.perWord }

// Load reads the stamp of slot s without spending a process step
// (diagnostics and recovery sweeps): a name's stamp, or a word's lease.
func (st *Stamps) Load(s int) uint64 {
	if st.perWord {
		if rec := st.record(s); rec != nil {
			return rec[recLease].Load()
		}
		return 0
	}
	if w := st.at(s); w != nil {
		return w.Load()
	}
	return 0
}

// Publish, Refresh and ClearOwned are the holder's per-name transitions;
// the word layout has its own (publishWord, retireWord, RefreshWord).

// Publish installs a holder's lease on name i right after the holder won
// the claim bit: one step, a CAS from whatever claimable state the slot is
// in ({0, orphan, tombstone}) to stamp. It reports false — the claimant
// lost the name to a racing reclaim and must walk away without touching the
// bit — when the slot holds a suspect mark or a foreign holder's lease.
func (st *Stamps) Publish(p *Proc, i int, stamp uint64) bool {
	p.Step(Op{Kind: OpTAS, Space: st.id, Index: int32(i)})
	w := st.slot(i)
	for {
		cur := w.Load()
		if !StampClaimable(cur) {
			return false
		}
		if w.CompareAndSwap(cur, stamp) {
			return true
		}
	}
}

// Refresh renews holder's lease on name i to epoch: one step, a CAS that
// only succeeds while the slot still carries holder's own stamp. A false
// result means the lease was reclaimed (or never existed) — the caller no
// longer holds the name.
func (st *Stamps) Refresh(p *Proc, i int, holder, epoch uint64) bool {
	p.Step(Op{Kind: OpTAS, Space: st.id, Index: int32(i)})
	w := st.at(i)
	if w == nil {
		return false // an absent page holds no lease
	}
	for {
		cur := w.Load()
		if h, _ := UnpackStamp(cur); h != holder {
			return false
		}
		if w.CompareAndSwap(cur, PackStamp(holder, epoch)) {
			return true
		}
	}
}

// ClearOwned retires holder's lease on name i ahead of freeing the claim
// bit: one step, a CAS to zero that only succeeds while the slot still
// carries holder's stamp. A false result means a reclaim raced the release
// — the name is no longer the caller's to free, and the caller must NOT
// clear the claim bit (it may already be re-granted).
func (st *Stamps) ClearOwned(p *Proc, i int, holder uint64) bool {
	p.Step(Op{Kind: OpClear, Space: st.id, Index: int32(i)})
	w := st.at(i)
	if w == nil {
		return false // an absent page holds no lease
	}
	for {
		cur := w.Load()
		if h, _ := UnpackStamp(cur); h != holder {
			return false
		}
		if w.CompareAndSwap(cur, 0) {
			return true
		}
	}
}

// Adopt, BeginReclaim, FinishReclaim, Drop and Quarantine are the
// reaper's per-name transitions; word records have stepped forms
// (AdoptWord and the rest, wordlease.go).

// Adopt installs a provisional orphan lease on name i, whose claim bit a
// sweep observed set under a zero stamp. The CAS from zero loses to the
// claimant publishing concurrently — exactly the intent. Reaper-side; no
// process step.
func (st *Stamps) Adopt(i int, epoch uint64) bool {
	return st.cas(i, 0, PackStamp(HolderOrphan, epoch))
}

// BeginReclaim starts the two-phase reclaim of name i: CAS the exact stale
// stamp the sweep observed to a suspect mark. A false result means the
// stamp moved — the holder refreshed, a claimant adopted, or another reaper
// won — and the reclaim must be abandoned. Reaper-side; no process step.
func (st *Stamps) BeginReclaim(i int, observed, epoch uint64) bool {
	return st.cas(i, observed, PackStamp(HolderSuspect, epoch))
}

// FinishReclaim completes the two-phase reclaim: CAS the suspect mark
// installed at epoch to a claimable tombstone. Reaper-side; no process
// step.
func (st *Stamps) FinishReclaim(i int, suspectEpoch, epoch uint64) bool {
	return st.cas(i, PackStamp(HolderSuspect, suspectEpoch), PackStamp(HolderTomb, epoch))
}

// Drop garbage-collects a residual stamp on a free name (e.g. a stale
// tombstone): CAS the observed value to zero. Reaper-side; no process step.
func (st *Stamps) Drop(i int, observed uint64) bool {
	return st.cas(i, observed, 0)
}

// Quarantine withdraws name i from circulation: CAS the exact stamp the
// scrubber observed to a quarantine mark dated epoch. Losing the CAS means
// the stamp moved — a publisher claimed the slot or a reaper got there
// first — and the scrubber must re-observe before acting. A quarantine
// stamp is never claimable (StampClaimable rejects it, so a claimant who
// wins the bit walks away leaving it set) and never reclaimed (the
// recovery sweep skips HolderQuarantine explicitly), which makes the
// quarantine durable: on mmap-backed namespaces it survives process
// generations in the stamp page itself. Scrubber-side; no process step.
func (st *Stamps) Quarantine(i int, observed, epoch uint64) bool {
	return st.cas(i, observed, PackStamp(HolderQuarantine, epoch))
}

// Inject stores an arbitrary raw stamp value in slot s (a name's stamp, or
// a word's lease, installing the word's level), bypassing every protocol
// transition. It exists solely for fault injection — the chaos harness and
// the integrity conformance law plant corrupt states with it — and, like
// SetCrashHook, appears on no real path.
func (st *Stamps) Inject(s int, v uint64) {
	if st.perWord {
		st.residentRecord(s)[recLease].Store(v)
		return
	}
	st.slot(s).Store(v)
}

// RefreshHolder renews every lease holder owns in the array to epoch and
// returns the number of names whose lease it renewed: a heartbeat. One
// step per renewed slot — per name on per-name stamps, per leased word
// holding names on word records (a lease covering no name protects
// nothing). Slots whose lease is not holder's, because it was reclaimed
// or never held, are skipped without a step, and so are slots without
// storage: pages never written, and the words of levels never claimed.
func (st *Stamps) RefreshHolder(p *Proc, holder, epoch uint64) int {
	if st.perWord {
		return st.refreshWords(p, holder, epoch)
	}
	renewed := 0
	for k := range st.pages {
		pg := st.pages[k].Load()
		if pg == nil {
			continue
		}
		for j := range *pg {
			if h, _ := UnpackStamp((*pg)[j].Load()); h == holder && st.Refresh(p, k<<6+j, holder, epoch) {
				renewed++
			}
		}
	}
	return renewed
}

// CountHolder returns the number of names currently stamped by client
// holder (diagnostics; no process step): in the word layout, the owned
// names of the words the holder leases. Absent pages hold none.
func (st *Stamps) CountHolder(holder uint64) int {
	c := 0
	for s := 0; s < st.Slots(); s++ {
		if h, _ := UnpackStamp(st.Load(s)); h != holder {
			continue
		}
		if st.perWord {
			c += bits.OnesCount64(st.Owned(s))
		} else {
			c++
		}
	}
	return c
}

// SetCrashHook installs (or, with nil, removes) the fault-injection hook.
// Only safe before workers start: the field is read without synchronization
// on the stamped hot path.
func (st *Stamps) SetCrashHook(hook func(p *Proc, point CrashPoint, name int) bool) {
	st.hook = hook
}

// maybeCrash consults the fault-injection hook at a protocol point.
func (st *Stamps) maybeCrash(p *Proc, point CrashPoint, name int) {
	if st.hook != nil && st.hook(p, point, name) {
		panic(LeaseCrash{PID: p.ID(), Name: name, Point: point})
	}
}
