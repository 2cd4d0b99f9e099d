// Package chaos is the seeded corruption injector behind the E21
// self-healing experiment: it damages a lease-enabled arena's shared words
// the way real faults would — garbage client stamps stored over free
// names, claim bits cleared under live stamps, claim bits set with no
// stamp behind them — through the arena's own lease domains, so the same
// injector drives every self-healing backend. Every victim is drawn from a
// seeded stream: the whole corruption campaign replays bit-identically
// from (seed, backend, capacity), which is what lets CI pin the E21 matrix.
//
// The integrity scrubber (package integrity) is the system under test: it
// must repair or quarantine every injection without ever enabling a
// duplicate grant. The unix-only file helpers corrupt mmap-backed
// namespace files on disk — torn superblocks and truncations that
// persist.Open must reject rather than map.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// Kind is one injected corruption shape.
type Kind int

const (
	// KindGarbageStamp stores a live client stamp over a free, unstamped
	// name: the bit-clear/stamp-set pair no legal execution produces —
	// irreparable, the scrubber must quarantine the word.
	KindGarbageStamp Kind = iota
	// KindClearBit clears the claim bit under a live client stamp (a
	// flipped bitmap word), leaving the same illegal pair from the other
	// side: the held name silently rejoins the free pool, and only the
	// quarantine stands between it and a duplicate grant.
	KindClearBit
	// KindSetBit sets a claim bit with no stamp behind it (a flipped bitmap
	// word in the other direction): an orphan, repairable — the scrubber
	// adopts it exactly like a recovery sweep would.
	KindSetBit
	numKinds
)

var kindNames = [numKinds]string{"garbage-stamp", "clear-bit", "set-bit"}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("chaos.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Injection records one applied corruption.
type Injection struct {
	Kind Kind
	// Name is the damaged global arena name.
	Name int
}

// Injector applies seeded corruptions to one lease-enabled arena. Not safe
// for concurrent use; one injector per campaign.
type Injector struct {
	arena longlived.Recoverable
	r     *prng.Rand
}

// NewInjector builds an injector over the arena, deterministic from seed.
func NewInjector(a longlived.Recoverable, seed uint64) *Injector {
	return &Injector{arena: a, r: prng.NewStream(seed, 0xC4A05)}
}

// Locate resolves the lease domain covering the global arena name,
// returning the domain and the domain-local index.
func Locate(a longlived.Recoverable, name int) (longlived.LeaseDomain, int, bool) {
	for _, d := range a.LeaseDomains() {
		if name >= d.Base && name < d.Base+d.Stamps.Size() {
			return d, name - d.Base, true
		}
	}
	return longlived.LeaseDomain{}, 0, false
}

// unstamped reports whether domain-local name i carries no lease claim:
// a zero stamp, or on word records a clear owned bit outside a quarantined
// word.
func unstamped(d longlived.LeaseDomain, i int) bool {
	if !d.Stamps.PerWord() {
		return d.Stamps.Load(i) == 0
	}
	h, _ := shm.UnpackStamp(d.Stamps.Load(i >> 6))
	return h != shm.HolderQuarantine && d.Stamps.Owned(i>>6)&(1<<(uint(i)&63)) == 0
}

// freeVictim draws a seeded name that is free and unstamped — the blast
// radius of a fault that hits idle state.
func (in *Injector) freeVictim() (longlived.LeaseDomain, int, bool) {
	var cand []int
	for _, d := range in.arena.LeaseDomains() {
		for i := 0; i < d.Stamps.Size(); i++ {
			if !d.IsHeld(i) && unstamped(d, i) {
				cand = append(cand, d.Base+i)
			}
		}
	}
	if len(cand) == 0 {
		return longlived.LeaseDomain{}, 0, false
	}
	g := cand[in.r.Intn(len(cand))]
	d, local, _ := Locate(in.arena, g)
	return d, local, true
}

// GarbageStamp injects a KindGarbageStamp corruption on a seeded free
// name: a raw store of a client stamp (random holder, current epoch) where
// none belongs — on word records, the name's owned bit, since the word's
// lease is shared with its other names. Returns false when the arena has
// no free unstamped name.
func (in *Injector) GarbageStamp(now uint64) (Injection, bool) {
	d, local, ok := in.freeVictim()
	if !ok {
		return Injection{}, false
	}
	holder := uint64(1 + in.r.Intn(1<<16))
	if w := local >> 6; d.Stamps.PerWord() {
		d.Stamps.InjectOwned(w, d.Stamps.Owned(w)|1<<(uint(local)&63))
	} else {
		d.Stamps.Inject(local, shm.PackStamp(holder, now))
	}
	return Injection{Kind: KindGarbageStamp, Name: d.Base + local}, true
}

// ClearBit injects a KindClearBit corruption on the given held name: the
// claim bit is cleared through the domain's reclaim hook while the live
// client stamp stays in place. The caller owns the choice of victim — it
// must be a name some holder believes it still owns.
func (in *Injector) ClearBit(p *shm.Proc, name int) Injection {
	d, local, ok := Locate(in.arena, name)
	if !ok || !d.IsHeld(local) {
		panic(fmt.Sprintf("chaos: ClearBit victim %d is not a held name", name))
	}
	d.Reclaim(p, local)
	return Injection{Kind: KindClearBit, Name: name}
}

// SetBit injects a KindSetBit corruption on a seeded free name: the claim
// bit is seized with no stamp published behind it, the signature an
// upward bit flip leaves. Returns false when the arena has no free name or
// its domains cannot seize bits.
func (in *Injector) SetBit(p *shm.Proc) (Injection, bool) {
	d, local, ok := in.freeVictim()
	if !ok || d.Seize == nil {
		return Injection{}, false
	}
	if !d.Seize(p, local) {
		return Injection{}, false
	}
	return Injection{Kind: KindSetBit, Name: d.Base + local}, true
}

// Report is the machine-readable accounting of one chaos campaign: the
// artifact cmd/renamebench -chaos writes and the CI chaos job uploads, so
// a regression in containment shows up as a diffable number, not just a
// failing assertion.
type Report struct {
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	Cells  []Cell `json:"cells"`
}

// Cell aggregates one (backend, capacity) point of the matrix across its
// trials.
type Cell struct {
	Backend  string `json:"backend"`
	Capacity int    `json:"capacity"`
	// Injected counts applied corruptions by Kind.String().
	Injected map[string]int `json:"injected"`
	// Repaired and Quarantined total the scrub results; Unrepaired and
	// DuplicateGrants are hard gates and must be zero (the harness panics
	// before recording otherwise — a nonzero value here means the gate was
	// deliberately disarmed).
	Repaired        int `json:"repaired"`
	Quarantined     int `json:"quarantined"`
	Unrepaired      int `json:"unrepaired"`
	DuplicateGrants int `json:"duplicate_grants"`
	// Drained is the total post-scrub grant count and Floor the guaranteed
	// minimum (capacity minus withdrawn names, summed over trials).
	Drained int `json:"drained"`
	Floor   int `json:"floor"`
	// ScrubIdle reports that the final scrub pass of every trial found
	// nothing left to do — the containment is a fixed point.
	ScrubIdle bool `json:"scrub_idle"`
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("chaos: encode report: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
