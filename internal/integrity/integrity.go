// Package integrity implements the online integrity scrubber of the
// lease-stamped renaming arenas: the layer that turns silent state damage
// — a flipped bitmap bit, a corrupted stamp word, a lease-cache bookkeeping
// divergence — into detected, repaired, or contained damage instead of a
// duplicate grant.
//
// # The conservation invariant
//
// At every instant, every name of a lease-enabled arena is in exactly one
// of three states, pairwise disjoint:
//
//   - free: claim bit clear, stamp claimable ({0, orphan, tombstone});
//   - parked: claim bit set, stamped by the caching holder, cached bit set
//     in the word-block lease cache (when one is layered above);
//   - granted: claim bit set, stamped by a client holder (or transiently
//     unstamped while a publish is in flight), no cached bit.
//
// Recovery (package recovery) assumes state is merely *stale* and restores
// liveness; the scrubber assumes state may be *corrupt* and restores — or
// contains — safety. It walks every bitmap word against its stamps and the
// cache's parked bits and classifies each name:
//
//   - repairable damage: residual stamps on free names (stale orphans and
//     tombstones), claim bits without stamps (adopted, exactly like a
//     recovery sweep, so the stall becomes reclaimable), phantom parked
//     names whose inner claim bit is clear (purged from the cache before
//     they can be granted);
//   - irreparable damage: a live client stamp over a clear claim bit.
//     That pair arises in no legal execution — releases retire the stamp
//     strictly before clearing the bit, claims set the bit strictly before
//     publishing — so one of the two words was corrupted, and the scrubber
//     cannot tell which without risking a duplicate grant. Likewise a
//     stamp whose epoch lies implausibly far in the future (Config
//     .MaxEpochAhead): it would never go stale, leaking the name forever.
//
// # Quarantine
//
// Irreparable damage is contained at word granularity: the scrubber
// withdraws the whole 64-name bitmap word from circulation. Every free
// name of the word is seized (its claim bit set through the backend's
// LeaseDomain.Seize) and stamped with the reserved quarantine holder
// (shm.HolderQuarantine); names still held by live clients are left
// untouched and absorbed on a later pass once released. The ordering makes
// the quarantine race-safe against concurrent claimants: the quarantine
// stamp is installed with a CAS before the bit is seized, and a claimant
// that wins the bit first finds the unclaimable stamp, walks away by the
// claim engine's rule, and leaves the bit set — quarantined either way,
// never granted. Because the mark lives in the stamp word itself, the
// quarantine is durable on mmap-backed namespaces: any later process
// generation's scrubber recognizes the word by its stamps, re-saturates
// bits lost to further corruption, and never counts the word as capacity.
//
// A quarantined word costs 64 names of advertised capacity (less those
// still serving live holders); the arena degrades instead of dying, which
// is the point — the alternative on detected corruption is a process panic
// or a silent exclusivity violation.
//
// # Word records
//
// On a word-record array (shm.NewWordStamps) the invariant is per word:
// the owned mask is a subset of the bitmap word. Claims set the bit before
// the owned bit, releases and reclaims clear the owned bit before the bit,
// so an owned bit over a clear claim bit arises in no legal execution —
// the scrubber quarantines its word, as it would a client stamp over a
// clear bit. The check reads the lease, the bitmap, the owned mask, the
// bitmap and the lease again (one step each) and flags only owned bits
// both bitmap reads lack under an unchanged lease, confirmed by repeated
// observations, so a claim or release sliding between the reads cannot
// fake a violation. Quarantining a word CASes its lease to the quarantine
// mark, then seizes every free bit; claims and releases in the word walk
// away from then on, so every name of the word is withdrawn at once. Set
// bits under a zero lease are adopted and stale residual leases over
// empty words dropped, as the recovery sweep would.
package integrity

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"shmrename/internal/longlived"
	"shmrename/internal/shm"
)

// Config parameterizes a Scrubber.
type Config struct {
	// Epochs is the lease clock, shared with the arena's holders and
	// reapers (required).
	Epochs shm.EpochSource
	// TTL is the staleness horizon for residual-stamp repair, in epochs:
	// stale orphans and tombstones on free names are dropped, fresh ones
	// are left to the recovery sweep they belong to. Matches the lease TTL.
	TTL uint64
	// Quarantine enables word quarantine for irreparable damage. Off, the
	// scrubber still detects and reports violations (Result.Unrepaired),
	// it just cannot contain them.
	Quarantine bool
	// MaxEpochAhead, when positive, flags client stamps whose epoch lies
	// more than this many epochs in the future as corrupt (they would
	// never go stale, leaking their names forever). Zero disables the
	// check — wall-clock deployments with loosely synchronized holders
	// should keep a generous margin or leave it off.
	MaxEpochAhead uint64
	// Parked, when non-nil, reports whether a global arena name is parked
	// in a word-block lease cache: the scrubber cross-checks that every
	// parked name is claimed underneath.
	Parked func(name int) bool
	// Purge, when non-nil, evicts a phantom parked name from the cache
	// (one whose inner claim bit is clear), reporting whether it was
	// found. The scrubber calls it before the name could be granted from
	// the cache without a backing claim.
	Purge func(name int) bool
}

// Result reports what one scrub pass found and did.
type Result struct {
	// Scanned is the number of names examined.
	Scanned int
	// Repaired counts repairs: adopted orphan bits, dropped residual
	// stamps, purged phantom cache entries, and re-seized quarantine bits.
	Repaired int
	// Quarantined counts names newly withdrawn from circulation this pass
	// (including free names of a damaged word absorbed into an existing
	// quarantine).
	Quarantined int
	// Unrepaired counts violations detected but not contained — quarantine
	// disabled, or the backend cannot seize bits. The arena's health is
	// Failed while any stand.
	Unrepaired int
}

// Scrubber runs integrity scrubs over one lease-enabled arena. All methods
// are safe for concurrent use; concurrent scrubs over the same arena are
// safe too (every stamp transition is a CAS, at most one wins).
type Scrubber struct {
	arena longlived.Recoverable
	cfg   Config

	passes     atomic.Uint64
	repaired   atomic.Uint64
	cumQuar    atomic.Uint64
	quarNames  atomic.Int64 // quarantine-stamped names observed by the last pass
	unrepaired atomic.Int64 // violations left standing by the last pass
}

// NewScrubber builds a scrubber over a lease-enabled arena.
func NewScrubber(a longlived.Recoverable, cfg Config) *Scrubber {
	if cfg.Epochs == nil {
		panic("integrity: Config.Epochs is required")
	}
	return &Scrubber{arena: a, cfg: cfg}
}

// Counters are the scrubber's cumulative totals across all passes.
type Counters struct {
	// Passes counts completed scrub passes.
	Passes uint64
	// Repaired totals Result.Repaired across passes.
	Repaired uint64
	// Quarantined totals Result.Quarantined across passes.
	Quarantined uint64
}

// Counters returns the cumulative totals.
func (s *Scrubber) Counters() Counters {
	return Counters{
		Passes:      s.passes.Load(),
		Repaired:    s.repaired.Load(),
		Quarantined: s.cumQuar.Load(),
	}
}

// QuarantinedNames returns the number of names currently withdrawn from
// circulation, as observed by the most recent scrub pass: the amount to
// subtract from the configured capacity to get the advertised one.
func (s *Scrubber) QuarantinedNames() int { return int(s.quarNames.Load()) }

// Unrepaired returns the number of violations the most recent pass
// detected but could not contain. Nonzero means the arena cannot vouch for
// exclusivity — health Failed.
func (s *Scrubber) Unrepaired() int { return int(s.unrepaired.Load()) }

// per-name classification of one scrub observation.
const (
	nameOK = iota
	nameRepaired
	nameViolation
	nameQuarantined
)

// Scrub runs one full integrity pass over every lease domain of the
// arena: word by word, each name is classified against the conservation
// invariant, repairable damage is repaired, and irreparable damage
// quarantines its word (Config.Quarantine permitting). The proc is charged
// for seized claim bits; stamp transitions are maintenance-side, like the
// recovery sweep's.
func (s *Scrubber) Scrub(p *shm.Proc) Result {
	now := s.cfg.Epochs.Now()
	var res Result
	quarNames := 0
	for _, d := range s.arena.LeaseDomains() {
		if d.Stamps.PerWord() {
			for w := 0; w < d.Stamps.Slots(); w++ {
				quarNames += s.scrubWord(p, d, w, now, &res)
			}
			continue
		}
		size := d.Stamps.Size()
		for lo := 0; lo < size; lo += 64 {
			hi := min(lo+64, size)
			violations, existing := 0, 0
			for i := lo; i < hi; i++ {
				res.Scanned++
				switch s.checkOne(d, i, now) {
				case nameRepaired:
					res.Repaired++
				case nameViolation:
					violations++
				case nameQuarantined:
					existing++
				}
			}
			canSeize := d.Seize != nil
			switch {
			case violations > 0 && s.cfg.Quarantine && canSeize,
				existing > 0 && canSeize:
				// Damaged word (or one carrying an earlier quarantine):
				// saturate it. Every free name is withdrawn; live holders
				// are absorbed on a later pass once they release.
				q, rep := s.quarantineWord(p, d, lo, hi, now)
				res.Quarantined += q
				res.Repaired += rep
				quarNames += existing + q
			case violations > 0:
				res.Unrepaired += violations
				quarNames += existing
			default:
				quarNames += existing
			}
		}
	}
	s.passes.Add(1)
	s.repaired.Add(uint64(res.Repaired))
	s.cumQuar.Add(uint64(res.Quarantined))
	s.quarNames.Store(int64(quarNames))
	s.unrepaired.Store(int64(res.Unrepaired))
	return res
}

// checkOne classifies domain-local name i and performs point repairs. The
// stamp is read before the bit and re-validated after, so the
// stamp-implies-bit invariant check cannot be fooled by a release sliding
// between the two loads.
func (s *Scrubber) checkOne(d longlived.LeaseDomain, i int, now uint64) int {
	obs := d.Stamps.Load(i)
	held := d.IsHeld(i)
	if d.Stamps.Load(i) != obs {
		return nameOK // concurrent protocol activity; next pass re-checks
	}
	h, e := shm.UnpackStamp(obs)
	out := nameOK
	if g := d.Base + i; s.cfg.Parked != nil && !held && s.cfg.Parked(g) {
		// A parked name must be claimed underneath, or the cache would
		// eventually grant a name it holds no claim on. Re-validate (an
		// Acquire pop unparks concurrently), then evict the phantom.
		if !d.IsHeld(i) && s.cfg.Parked(g) && s.cfg.Purge != nil && s.cfg.Purge(g) {
			out = nameRepaired
		}
	}
	switch {
	case obs == 0:
		if held && d.Stamps.Adopt(i, now) {
			// Orphaned claim bit: a holder crashed between winning the bit
			// and publishing (or mid-release). Adopted exactly like a
			// recovery sweep, so the stall becomes reclaimable.
			return nameRepaired
		}
	case h == shm.HolderQuarantine:
		return nameQuarantined
	case h == shm.HolderSuspect:
		// Reclaim in flight — recovery's jurisdiction, not damage.
	case h == shm.HolderOrphan, h == shm.HolderTomb:
		if !held && shm.StampStale(now, e, s.cfg.TTL) && d.Stamps.Drop(i, obs) {
			return nameRepaired // residual recovery stamp on a free name
		}
	default: // client holder
		if !held {
			// A live client stamp over a clear claim bit arises in no
			// legal execution: releases retire the stamp strictly before
			// the bit, claims set the bit strictly before the stamp. One
			// of the two words is corrupt, and re-granting the name could
			// duplicate it.
			return nameViolation
		}
		if s.cfg.MaxEpochAhead > 0 && e > now && e-now > s.cfg.MaxEpochAhead {
			// A future-dated lease never goes stale: the name would leak
			// forever, and the epoch field is evidence of stamp corruption.
			return nameViolation
		}
	}
	return out
}

// quarantineWord withdraws the free names of bitmap word [lo, hi) from
// circulation: quarantine stamp first (a CAS that blocks publishers), then
// the claim bit (a claimant that slipped in between finds the unclaimable
// stamp and walks away, leaving the bit set — quarantined either way).
// Names held under live client stamps are left in place; suspects are left
// to their reaper. Returns newly quarantined names and re-seized bits.
func (s *Scrubber) quarantineWord(p *shm.Proc, d longlived.LeaseDomain, lo, hi int, now uint64) (quarantined, repaired int) {
	for i := lo; i < hi; i++ {
	retry:
		for attempt := 0; attempt < 8; attempt++ {
			obs := d.Stamps.Load(i)
			held := d.IsHeld(i)
			h, _ := shm.UnpackStamp(obs)
			switch {
			case h == shm.HolderQuarantine:
				if !held {
					// The quarantine lost its bit to further corruption:
					// re-saturate.
					if d.Seize(p, i) {
						repaired++
					}
				}
				break retry
			case h == shm.HolderSuspect:
				break retry // mid-reclaim; absorbed on a later pass
			case held && shm.StampClaimable(obs) && h != shm.HolderOrphan:
				// Walked-away bit under a tombstone (or a publish racing
				// us over zero): take the stamp; the bit is already set.
				if d.Stamps.Quarantine(i, obs, now) {
					quarantined++
					break retry
				}
			case held:
				break retry // live holder (or in-flight claim): absorb later
			default:
				// Free name, or the violating bit-clear client stamp:
				// stamp first, then seize the bit.
				if !d.Stamps.Quarantine(i, obs, now) {
					continue
				}
				d.Seize(p, i)
				quarantined++
				break retry
			}
		}
	}
	return quarantined, repaired
}

// wordConfirmations is how many consecutive observations must show the
// same owned-but-clear bits before the scrubber quarantines their word.
const wordConfirmations = 3

// scrubWord checks word record w of a word-record domain, repairs or
// quarantines it, and returns the names of the word withdrawn after the
// pass (see the package comment's "Word records").
func (s *Scrubber) scrubWord(p *shm.Proc, d longlived.LeaseDomain, w int, now uint64, res *Result) int {
	st := d.Stamps
	lo, hi := st.WordNames(w)
	res.Scanned += hi - lo
	obs, held, bad, ok := s.observeWord(p, d, w)
	if !ok {
		return 0 // concurrent protocol activity; the next pass re-checks
	}
	res.Repaired += s.purgeParked(d, lo, hi, held)
	h, e := shm.UnpackStamp(obs)
	var violations int
	switch {
	case h == shm.HolderQuarantine:
		res.Repaired += s.saturateWord(p, d, lo, hi)
		return hi - lo
	case h == shm.HolderSuspect:
		return 0 // reclaim in flight: recovery's jurisdiction
	case bad != 0:
		for i := 0; i < wordConfirmations-1 && bad != 0; i++ {
			var again uint64
			if obs, _, again, ok = s.observeWord(p, d, w); !ok {
				return 0
			}
			bad &= again
		}
		violations = bits.OnesCount64(bad)
	case h != shm.HolderOrphan && h != shm.HolderTomb && obs != 0 &&
		s.cfg.MaxEpochAhead > 0 && e > now && e-now > s.cfg.MaxEpochAhead:
		violations = 1 // a future-dated lease never goes stale
	case obs == 0 && held != 0:
		if st.AdoptWord(p, w, obs, now) {
			res.Repaired += bits.OnesCount64(held)
		}
		return 0
	case (h == shm.HolderOrphan || h == shm.HolderTomb) && held == 0 && shm.StampStale(now, e, s.cfg.TTL):
		if st.DropWord(p, w, obs) {
			res.Repaired++
		}
		return 0
	default:
		return 0
	}
	if violations == 0 {
		return 0
	}
	if !s.cfg.Quarantine || d.Seize == nil {
		res.Unrepaired += violations
		return 0
	}
	if !st.QuarantineWord(p, w, obs, now) {
		return 0 // the lease moved; the next pass re-observes
	}
	s.saturateWord(p, d, lo, hi)
	res.Quarantined += hi - lo
	return hi - lo
}

// observeWord reads word w's lease, bitmap word, owned mask, bitmap word
// and lease, one step each. It returns the lease, the claim bits and the
// owned bits both bitmap reads lack; ok is false when the lease changed
// between its two reads.
func (s *Scrubber) observeWord(p *shm.Proc, d longlived.LeaseDomain, w int) (obs, held, bad uint64, ok bool) {
	st := d.Stamps
	obs = st.LeaseWord(p, w)
	held = st.BitsWord(p, w)
	owned := st.OwnedWord(p, w)
	again := st.BitsWord(p, w)
	if st.LeaseWord(p, w) != obs {
		return 0, 0, 0, false
	}
	return obs, held, owned &^ (held | again), true
}

// purgeParked evicts the phantom parked names of [lo, hi): parked in the
// cache above while their claim bit reads clear.
func (s *Scrubber) purgeParked(d longlived.LeaseDomain, lo, hi int, held uint64) int {
	if s.cfg.Parked == nil || s.cfg.Purge == nil {
		return 0
	}
	purged := 0
	for i := lo; i < hi; i++ {
		g := d.Base + i
		if held&(1<<(uint(i)&63)) == 0 && s.cfg.Parked(g) && !d.IsHeld(i) && s.cfg.Parked(g) && s.cfg.Purge(g) {
			purged++
		}
	}
	return purged
}

// saturateWord seizes every free name of [lo, hi) in a quarantined word
// and returns how many it seized.
func (s *Scrubber) saturateWord(p *shm.Proc, d longlived.LeaseDomain, lo, hi int) int {
	seized := 0
	for i := lo; i < hi; i++ {
		if d.Seize != nil && !d.IsHeld(i) && d.Seize(p, i) {
			seized++
		}
	}
	return seized
}

// Run starts a background goroutine scrubbing every interval with the
// given proc until the returned stop function is called. Stop is
// idempotent and waits for an in-flight scrub to finish.
func (s *Scrubber) Run(p *shm.Proc, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.Scrub(p)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
