package longlived

import (
	"fmt"

	"shmrename/internal/shm"
)

// LeaseOpts enables the crash-recovery lease layer on an arena backend:
// lease stamps (shm.Stamps) packing holder identity and lease epoch,
// published on every claim and retired on every release, so a recovery
// sweep (package recovery) can reclaim names whose holder died. A nil
// LeaseOpts — or one without an epoch source — leaves the backend exactly
// as before: no stamp array, no extra steps, golden fingerprints intact.
//
// The stamp layout follows the holder. With one holder for every claim
// (Holder nonzero) the arena keeps one word record per 64-name bitmap
// word — a lease plus an owned mask (shm.NewWordStamps), stored in the
// level's own bitmap allocation — since a word's names then share one
// lease anyway. With a holder per proc (Holder zero) it keeps one stamp
// per name.
//
// A word-block lease cache (package leasecache) layered above a leased
// backend holds each cached block as one ordinary lease: parked names are
// stamped to the caching holder exactly like granted ones, heartbeats
// renew them together, and the recovery sweep reclaims an abandoned
// cache's blocks whole — no cache-specific recovery protocol exists.
type LeaseOpts struct {
	// Epochs is the lease clock shared by holders and reapers. Non-nil
	// enables the lease layer.
	Epochs shm.EpochSource
	// Holder is the one holder identity, in [1, shm.MaxHolder], every
	// claim is stamped with; the public API passes one per Arena handle.
	// Zero makes each proc its own holder (PID+1), the finest-grained
	// recovery unit, and keeps per-name stamps.
	Holder uint64
}

// enabled reports whether the lease layer is on.
func (o *LeaseOpts) enabled() bool { return o != nil && o.Epochs != nil }

// newStamps attaches the stamp array the holder rule selects to levels,
// laid end to end from name 0, and returns it: word records in the
// levels' own allocations for one holder, per-name stamps for a holder
// per proc.
func (o *LeaseOpts) newStamps(label string, levels ...*shm.NameSpace) *shm.Stamps {
	if o.Holder > shm.MaxHolder {
		panic(fmt.Sprintf("longlived: holder %d outside [1, %d]", o.Holder, uint64(shm.MaxHolder)))
	}
	if o.Holder != 0 {
		return shm.NewWordStamps(label, levels, o.Epochs)
	}
	n := 0
	for _, s := range levels {
		n += s.Size()
	}
	st := shm.NewStamps(label, n)
	base := 0
	for _, s := range levels {
		s.AttachStamps(st, base)
		base += s.Size()
	}
	return st
}

// holder resolves the proc's holder identity.
func (o *LeaseOpts) holder(p *shm.Proc) uint64 {
	if o.Holder != 0 {
		return o.Holder
	}
	return uint64(p.ID())%shm.MaxHolder + 1
}

// stamp builds the proc's current lease stamp. Word records date each
// lease CAS themselves, so one holder's stamp skips the clock read.
func (o *LeaseOpts) stamp(p *shm.Proc) uint64 {
	if o.Holder != 0 {
		return shm.PackStamp(o.Holder, 0)
	}
	return shm.PackStamp(o.holder(p), o.Epochs.Now())
}

// LeaseDomain is one contiguous lease-stamped name region of an arena: the
// unit a recovery sweep iterates. Domain-local name i corresponds to global
// arena name Base+i and stamp slot Stamps[i].
type LeaseDomain struct {
	// Base is the first global arena name of the domain.
	Base int
	// Stamps covers global names [Base, Base+Stamps.Size()).
	Stamps *shm.Stamps
	// IsHeld reports the claim bit of domain-local name i without spending
	// a step.
	IsHeld func(i int) bool
	// Reclaim returns domain-local name i to the pool after the sweep won
	// the suspect CAS (shm.Stamps.BeginReclaim): clear the claim bit and
	// any backend side state — the τ arena also returns the crashed
	// holder's counting-device bit here. Called at most once per won
	// BeginReclaim, between it and FinishReclaim.
	Reclaim func(p *shm.Proc, i int)
	// Seize, when non-nil, claims the bare claim bit of domain-local name
	// i on behalf of maintenance (the integrity scrubber saturating a
	// quarantined word), reporting whether the bit flipped free→claimed.
	// It publishes no stamp — the caller installs the quarantine mark
	// around it — and backends whose claim bit carries side state the
	// scrubber cannot also take (the τ arena's counting devices, the
	// elastic ladder's drain accounting) leave it nil: such arenas are
	// scrub-checkable but not quarantine-capable.
	Seize func(p *shm.Proc, i int) bool
}

// Recoverable is the interface of lease-enabled arenas: the recovery
// sweeper works exclusively through it. Backends whose lease layer is off
// return no domains.
type Recoverable interface {
	Arena
	// LeaseDomains exposes the arena's stamped regions in name order.
	LeaseDomains() []LeaseDomain
}

// HeartbeatHolder renews every lease the holder currently owns across the
// arena's domains to the given epoch, returning the number of names whose
// lease it renewed (shm.Stamps.RefreshHolder): one step per renewed stamp
// slot, per name on per-name stamps and per leased bitmap word holding
// names on word records. Slots whose lease was already reclaimed are
// skipped — the holder has lost those names — and so is stamp storage
// never written, which holds no lease at all.
func HeartbeatHolder(a Recoverable, p *shm.Proc, holder, epoch uint64) int {
	renewed := 0
	for _, d := range a.LeaseDomains() {
		renewed += d.Stamps.RefreshHolder(p, holder, epoch)
	}
	return renewed
}
