package conformance

import (
	"testing"

	"shmrename/internal/integrity"
	"shmrename/internal/longlived"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// lawSelfHealing: on self-healing backends, injected irreparable damage — a
// live client stamp over a clear claim bit, a pair no legal execution
// produces — is contained by one scrub pass at word granularity: exactly
// the damaged word is quarantined, a second pass is idle (the repair is
// stable), and the degraded arena serves every surviving name exactly once
// per generation without ever granting from the quarantined word.
func lawSelfHealing(t *testing.T, b registry.Backend) {
	ep := shm.NewCounterEpochs(1)
	a := build(t, b, registry.Config{
		Capacity:  suiteCapacity,
		MaxPasses: 8,
		Epochs:    ep,
		Label:     "conf-heal-" + b.Name,
	})
	rec, ok := a.(longlived.Recoverable)
	if !ok {
		t.Fatalf("backend registered SelfHealing but %T does not implement longlived.Recoverable", a)
	}
	doms := rec.LeaseDomains()
	if len(doms) == 0 {
		t.Fatal("backend registered SelfHealing but exposes no lease domains")
	}
	d := doms[0]
	if d.Seize == nil {
		t.Fatal("backend registered SelfHealing but its lease domain has no Seize hook")
	}
	const victim = 0
	if d.IsHeld(victim) || d.Stamps.Load(victim) != 0 || d.Stamps.Owned(victim) != 0 {
		t.Fatalf("fresh arena: name %d is not free", d.Base+victim)
	}
	if d.Stamps.PerWord() {
		// Word records share a word's lease: the same damage is an owned
		// bit over the clear claim bit.
		d.Stamps.InjectOwned(victim>>6, 1<<(victim&63))
	} else {
		d.Stamps.Inject(victim, shm.PackStamp(4242, ep.Now()))
	}

	cfg := integrity.Config{Epochs: ep, TTL: 4, Quarantine: true}
	if c, ok := a.(interface {
		Parked(int) bool
		PurgeParked(int) bool
	}); ok {
		cfg.Parked = c.Parked
		cfg.Purge = c.PurgeParked
	}
	s := integrity.NewScrubber(rec, cfg)
	p := nativeProc(0)

	// The containment unit is the victim's bitmap word within its domain
	// (partial at the domain tail, so sharded geometries quarantine less
	// than 64 names).
	lo := victim / 64 * 64
	hi := min(lo+64, d.Stamps.Size())
	word := hi - lo

	res := s.Scrub(p)
	if res.Unrepaired != 0 {
		t.Fatalf("scrub left %d violations standing with quarantine enabled", res.Unrepaired)
	}
	if res.Quarantined != word {
		t.Fatalf("scrub quarantined %d names, want exactly the damaged word's %d", res.Quarantined, word)
	}
	if got := s.QuarantinedNames(); got != word {
		t.Fatalf("QuarantinedNames() = %d, want %d", got, word)
	}
	// A second pass must be idle: the quarantine is a fixed point, not a
	// repair the scrubber keeps re-doing.
	res = s.Scrub(p)
	if res.Quarantined != 0 || res.Repaired != 0 || res.Unrepaired != 0 {
		t.Fatalf("second scrub not idle: %+v", res)
	}
	if got := s.QuarantinedNames(); got != word {
		t.Fatalf("QuarantinedNames() after idle pass = %d, want %d", got, word)
	}
	// Conservation under degradation: two full generations over the
	// surviving pool, each granting unique names, never from the withdrawn
	// word, and never fewer than the guaranteed floor (configured capacity
	// minus the quarantined word — backends whose name pool carries slack
	// beyond the capacity may still serve more). The generations must agree:
	// the quarantine is not eroding the pool pass over pass.
	drained := -1
	for gen := 0; gen < 2; gen++ {
		seen := make(map[int]bool)
		var names []int
		for {
			n := a.Acquire(p)
			if n < 0 {
				break
			}
			if n >= d.Base+lo && n < d.Base+hi {
				t.Fatalf("generation %d: granted quarantined name %d", gen, n)
			}
			if seen[n] {
				t.Fatalf("generation %d: name %d granted twice", gen, n)
			}
			seen[n] = true
			names = append(names, n)
		}
		if floor := suiteCapacity - word; len(names) < floor {
			t.Fatalf("generation %d: drained %d names, floor is %d (capacity %d minus quarantined %d)",
				gen, len(names), floor, suiteCapacity, word)
		}
		if drained >= 0 && len(names) != drained {
			t.Fatalf("generation %d drained %d names, generation 0 drained %d — the pool is eroding", gen, len(names), drained)
		}
		drained = len(names)
		for _, n := range names {
			a.Release(p, n)
		}
		flush(a, p)
	}
}
