// Package recovery implements the crash-recovery sweep over lease-stamped
// renaming arenas: the component that turns the lease layer's per-name
// holder/epoch stamps (shm.Stamps, threaded through the longlived backends
// by longlived.LeaseOpts) into an actual liveness guarantee — a name whose
// holder crashed is returned to the pool, and a name whose holder is alive
// is never taken away.
//
// # Model
//
// The paper's renaming algorithms assume processes may crash at any step;
// a crashed process simply stops taking steps. In the one-shot setting a
// crash only wastes the crashed process's own name. In the long-lived
// arena a crash is worse: the holder's name (and, for the τ backend, its
// counting-device bit) stays claimed forever, permanently shrinking the
// arena's capacity. The lease layer restores the crash-prone model's
// utility: every claim publishes a stamp carrying the holder's identity
// and a lease epoch, holders renew their stamps by heartbeating, and the
// sweep implemented here reclaims names whose stamps went unrenewed past a
// time-to-live.
//
// # Two-phase reclaim
//
// The sweep never frees a name in one step. It first CASes the exact stamp
// it observed to a suspect mark (shm.Stamps.BeginReclaim) — a holder that
// heartbeated concurrently changed the stamp's epoch, so the CAS fails and
// the live holder keeps the name unconditionally. Only after winning the
// suspect mark does the sweep clear the claim bit and backend side state
// (longlived.LeaseDomain.Reclaim) and retire the mark to a tombstone
// (FinishReclaim), making the name claimable again. The suspect mark also
// blocks concurrent publishers for the duration, so a reclaim in progress
// can never race a new claim into a double grant.
//
// # Sweep cases
//
// For each name the sweep reads the stamp and the claim bit and acts on
// the pair:
//
//   - claim bit set, stamp zero: a holder crashed between winning the bit
//     and publishing its stamp (or mid-release, after retiring the stamp
//     but before clearing the bit). The sweep adopts the name — CAS the
//     zero stamp to an orphan mark dated now — and reclaims the orphan on
//     a later pass once it goes stale. The grace period protects an
//     in-flight publisher: its publish CAS succeeds over the orphan mark
//     and the holder keeps the name.
//   - stale suspect mark: a reaper crashed mid-reclaim. The sweep resumes
//     it two-phase like any reclaim — CAS the stale mark to a fresh
//     suspect epoch, and only the winner re-clears the name and retires
//     the mark (concurrent sweepers must not all act on the same
//     observation).
//   - stale tombstone under a set claim bit: a claimer won the bit while a
//     reclaim was in flight, saw the suspect mark, and walked away (the
//     claim engine's rule: never free a bit you cannot stamp). The sweep
//     reclaims the walked-away bit.
//   - stale client stamp: the crash case proper — reclaim, two-phase. A
//     configured liveness oracle (Config.Alive) can veto: a holder that is
//     verifiably alive but slow to heartbeat is spared.
//
// Every stamp transition is a CAS against the observed value, so any
// number of concurrent sweepers — plus the background reaper and crashing
// holders — reach a consistent outcome: at most one party wins each
// transition.
//
// # Word records
//
// On a word-record array (one holder per arena, shm.NewWordStamps) the
// sweep acts per 64-name word, on the word's lease, owned mask and bitmap
// word, each read one step:
//
//   - a stale holder lease, a stale orphan, or a stale suspect mark is
//     reclaimed two-phase as above, but the reclaim takes the owned mask
//     and clears exactly those bits. A set bit nobody owns may be a claim
//     whose lease CAS has not landed yet; clearing it would let that claim
//     complete over the tombstone and own a free name;
//   - set bits under a claimable lease (zero or tombstone) are adopted:
//     the lease becomes an orphan and the bits join the owned mask, so a
//     claimant still in flight keeps its bit by taking the orphan lease,
//     and the rest are reclaimed once the orphan goes stale;
//   - a stale tombstone over an empty word is dropped.
//
// Result counts stay in names: a reclaimed word counts its owned names.
package recovery

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"shmrename/internal/longlived"
	"shmrename/internal/shm"
)

// Config parameterizes a Sweeper.
type Config struct {
	// TTL is the lease time-to-live in epochs: a stamp whose epoch is more
	// than TTL behind the current epoch is stale. With TTL 0 a lease goes
	// stale one epoch after its last renewal.
	TTL uint64
	// Epochs is the lease clock, shared with the arena's holders (the same
	// source passed to longlived.LeaseOpts).
	Epochs shm.EpochSource
	// Alive, when non-nil, is the liveness oracle: a TTL-stale holder that
	// Alive reports alive is spared. The mmap-backed cross-process arena
	// uses kill(pid, 0); in-process arenas usually leave it nil and rely on
	// heartbeats alone.
	Alive func(holder uint64) bool
}

// Result reports what one sweep pass did.
type Result struct {
	// Scanned is the number of names whose stamps were examined.
	Scanned int
	// Adopted counts names whose set claim bit had no stamp (crashed
	// pre-publish or mid-release) and were marked orphaned this pass.
	Adopted int
	// Reclaimed counts names returned to the pool this pass: stale client
	// stamps, stale orphans, and walked-away bits under stale tombstones.
	Reclaimed int
	// Resumed counts reclaims left half-done by a crashed reaper and
	// completed this pass.
	Resumed int
	// Dropped counts residual stamps cleared from already-free names.
	Dropped int
}

// Sweeper runs recovery sweeps over one lease-enabled arena. All methods
// are safe for concurrent use; multiple sweepers over the same arena are
// safe too (every transition is a CAS, at most one wins).
type Sweeper struct {
	arena longlived.Recoverable
	cfg   Config

	sweeps    atomic.Uint64
	adopted   atomic.Uint64
	reclaimed atomic.Uint64
	dropped   atomic.Uint64
}

// Counters are the sweeper's cumulative totals across all passes.
type Counters struct {
	Sweeps    uint64
	Adopted   uint64
	Reclaimed uint64 // includes resumed reclaims
	Dropped   uint64
}

// NewSweeper builds a sweeper over a lease-enabled arena.
func NewSweeper(a longlived.Recoverable, cfg Config) *Sweeper {
	if cfg.Epochs == nil {
		panic("recovery: Config.Epochs is required")
	}
	return &Sweeper{arena: a, cfg: cfg}
}

// Counters returns the cumulative totals.
func (s *Sweeper) Counters() Counters {
	return Counters{
		Sweeps:    s.sweeps.Load(),
		Adopted:   s.adopted.Load(),
		Reclaimed: s.reclaimed.Load(),
		Dropped:   s.dropped.Load(),
	}
}

// Sweep runs one full recovery pass over every lease domain of the arena,
// acting on each name as described in the package comment. The proc is
// charged for the claim-bit clears of won reclaims (the backend Reclaim
// callbacks); stamp transitions are reaper-side maintenance and cost no
// steps.
func (s *Sweeper) Sweep(p *shm.Proc) Result {
	now := s.cfg.Epochs.Now()
	var res Result
	for _, d := range s.arena.LeaseDomains() {
		if d.Stamps.PerWord() {
			for w := 0; w < d.Stamps.Slots(); w++ {
				lo, hi := d.Stamps.WordNames(w)
				res.Scanned += hi - lo
				s.sweepWord(p, d, w, now, &res)
			}
			continue
		}
		for i := 0; i < d.Stamps.Size(); i++ {
			res.Scanned++
			s.sweepOne(p, d, i, now, &res)
		}
	}
	s.sweeps.Add(1)
	s.adopted.Add(uint64(res.Adopted))
	s.reclaimed.Add(uint64(res.Reclaimed + res.Resumed))
	s.dropped.Add(uint64(res.Dropped))
	return res
}

func (s *Sweeper) sweepOne(p *shm.Proc, d longlived.LeaseDomain, i int, now uint64, res *Result) {
	obs := d.Stamps.Load(i)
	held := d.IsHeld(i)
	h, e := shm.UnpackStamp(obs)
	switch {
	case obs == 0:
		if held && d.Stamps.Adopt(i, now) {
			res.Adopted++
		}
	case h == shm.HolderQuarantine:
		// The integrity scrubber withdrew the name after detecting
		// irreparable word damage. The quarantine is deliberate and
		// permanent: it never goes stale and is never reclaimed, or the
		// damaged word would re-enter circulation.
		return
	case h == shm.HolderSuspect:
		// A reaper crashed between BeginReclaim and FinishReclaim. Resuming
		// goes through the same two-phase reclaim: CAS the stale mark to a
		// fresh suspect epoch first, and only the winner re-clears the name.
		// Acting without the CAS would let a sweeper delayed between this
		// load and the act free a name that another sweeper meanwhile
		// resumed, tombstoned, and a claimant re-claimed.
		if shm.StampStale(now, e, s.cfg.TTL) && s.reclaim(p, d, i, obs, now) {
			res.Resumed++
		}
	case h == shm.HolderTomb:
		if !shm.StampStale(now, e, s.cfg.TTL) {
			return
		}
		if held {
			// Walked-away bit: a claimer lost the publish race and left the
			// bit set (see the claim engine's walk-away rule).
			if s.reclaim(p, d, i, obs, now) {
				res.Reclaimed++
			}
		} else if d.Stamps.Drop(i, obs) {
			res.Dropped++
		}
	case h == shm.HolderOrphan:
		if !shm.StampStale(now, e, s.cfg.TTL) {
			return
		}
		if !held {
			if d.Stamps.Drop(i, obs) {
				res.Dropped++
			}
			return
		}
		if s.reclaim(p, d, i, obs, now) {
			res.Reclaimed++
		}
	default: // client holder
		if !shm.StampStale(now, e, s.cfg.TTL) {
			return
		}
		if s.cfg.Alive != nil && s.cfg.Alive(h) {
			return
		}
		if !held {
			if d.Stamps.Drop(i, obs) {
				res.Dropped++
			}
			return
		}
		if s.reclaim(p, d, i, obs, now) {
			res.Reclaimed++
		}
	}
}

// reclaim runs the two-phase reclaim of domain-local name i whose stamp
// was observed as obs. A false return means the CAS on the observed stamp
// lost — a heartbeat renewed the lease, a racing sweeper got there first,
// or a publisher claimed a claimable stamp — and nothing was touched.
func (s *Sweeper) reclaim(p *shm.Proc, d longlived.LeaseDomain, i int, obs, now uint64) bool {
	if !d.Stamps.BeginReclaim(i, obs, now) {
		return false
	}
	d.Reclaim(p, i)
	d.Stamps.FinishReclaim(i, now, now)
	return true
}

// sweepWord acts on word record w of a word-record domain (see the
// package comment's "Word records").
func (s *Sweeper) sweepWord(p *shm.Proc, d longlived.LeaseDomain, w int, now uint64, res *Result) {
	st := d.Stamps
	obs := st.LeaseWord(p, w)
	h, e := shm.UnpackStamp(obs)
	switch {
	case h == shm.HolderQuarantine:
		return
	case obs == 0 || h == shm.HolderTomb:
		if held := st.BitsWord(p, w); held != 0 {
			if st.AdoptWord(p, w, obs, now) {
				res.Adopted += bits.OnesCount64(held)
			}
		} else if h == shm.HolderTomb && shm.StampStale(now, e, s.cfg.TTL) && st.DropWord(p, w, obs) {
			res.Dropped++
		}
	case !shm.StampStale(now, e, s.cfg.TTL):
		return
	case h == shm.HolderSuspect:
		if n, ok := s.reclaimWord(p, d, w, obs, now); ok {
			res.Resumed += n
		}
	case h == shm.HolderOrphan:
		if n, ok := s.reclaimWord(p, d, w, obs, now); ok {
			res.Reclaimed += n
		}
	default: // client holder
		if s.cfg.Alive != nil && s.cfg.Alive(h) {
			return
		}
		if n, ok := s.reclaimWord(p, d, w, obs, now); ok {
			res.Reclaimed += n
		}
	}
}

// reclaimWord runs the two-phase reclaim of word w whose lease was
// observed as obs: suspect mark, take the owned mask, clear exactly those
// names through the domain's Reclaim, tombstone. It returns the number of
// names cleared; false means the CAS on the observed lease lost and
// nothing was touched.
func (s *Sweeper) reclaimWord(p *shm.Proc, d longlived.LeaseDomain, w int, obs, now uint64) (int, bool) {
	st := d.Stamps
	if !st.BeginReclaimWord(p, w, obs, now) {
		return 0, false
	}
	owned := st.TakeOwned(p, w)
	for rest := owned; rest != 0; rest &= rest - 1 {
		d.Reclaim(p, w<<6+bits.TrailingZeros64(rest))
	}
	st.FinishReclaimWord(p, w, now, now)
	return bits.OnesCount64(owned), true
}

// Reaper starts a background goroutine sweeping every interval with the
// given proc until the returned stop function is called. Stop is
// idempotent and waits for an in-flight sweep to finish before returning.
func (s *Sweeper) Reaper(p *shm.Proc, interval time.Duration) (stop func()) {
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
				s.Sweep(p)
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
