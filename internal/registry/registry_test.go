package registry_test

import (
	"sort"
	"strings"
	"testing"

	"shmrename/internal/prng"
	"shmrename/internal/registry"
	_ "shmrename/internal/registry/all"
	"shmrename/internal/shm"
)

// TestRegisteredSet pins the in-tree backend roster: a new backend must be
// added here (and to registry/all) deliberately, and a registration that
// silently stops firing is caught.
func TestRegisteredSet(t *testing.T) {
	want := []string{
		"elastic-level",
		"exclusive-selection",
		"lease-cached",
		"level-array",
		"persist",
		"sharded",
		"tau-longlived",
	}
	var got []string
	for _, b := range registry.All() {
		got = append(got, b.Name)
	}
	if !sort.StringsAreSorted(got) {
		t.Errorf("All() not sorted by name: %v", got)
	}
	if len(got) != len(want) {
		t.Fatalf("registered backends %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered backends %v, want %v", got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	b, ok := registry.Lookup("sharded")
	if !ok || b.Name != "sharded" {
		t.Fatalf("Lookup(sharded) = %+v, %v", b, ok)
	}
	if !b.Caps.Sharded || !b.Caps.WordScan {
		t.Errorf("sharded caps %+v missing Sharded/WordScan", b.Caps)
	}
	if _, ok := registry.Lookup("no-such-backend"); ok {
		t.Error("Lookup of unknown backend succeeded")
	}
}

// TestCapsConsistency checks cross-flag invariants every registration must
// satisfy.
func TestCapsConsistency(t *testing.T) {
	for _, b := range registry.All() {
		if b.Caps.Cached && b.Caps.Deterministic {
			t.Errorf("%s: Cached backends park names in scheduler-shaped slots and cannot be Deterministic", b.Name)
		}
		if b.Caps.LeaksOnCrash && !b.Caps.Leasable {
			t.Errorf("%s: LeaksOnCrash only makes sense for Leasable backends", b.Name)
		}
		if b.New == nil {
			t.Errorf("%s: nil constructor", b.Name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, b registry.Backend) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		registry.Register(b)
	}
	mustPanic("duplicate", registry.Backend{
		Name: "sharded",
		New:  func(registry.Config) registry.Arena { return nil },
	})
	mustPanic("empty name", registry.Backend{
		New: func(registry.Config) registry.Arena { return nil },
	})
	mustPanic("nil constructor", registry.Backend{Name: "constructorless"})
}

// TestConstructorsHonorConfig spot-checks that every registered (in-process)
// constructor respects the common capacity knob, and the stripe-count,
// elasticity and padding knobs its capabilities promise: a Sharded backend
// stripes Config.Shards ways, an Elastic or Sharded backend built with
// Config.Elastic starts with less resident capacity than it guarantees,
// and a backend reporting its footprint builds packed storage when
// Config.Padded is false and pads it when Padded is true — except a
// Cached backend, whose backend is packed either way.
func TestConstructorsHonorConfig(t *testing.T) {
	for _, b := range registry.All() {
		if b.Caps.External {
			continue // OS-backed; exercised by the conformance suite
		}
		a := b.New(registry.Config{Capacity: 32, Label: "t-reg-" + b.Name})
		if a.Capacity() != 32 {
			t.Errorf("%s: capacity %d, want 32", b.Name, a.Capacity())
		}
		if a.NameBound() < 32 {
			t.Errorf("%s: name bound %d below capacity", b.Name, a.NameBound())
		}
		if b.Caps.Sharded {
			a := b.New(registry.Config{Capacity: 32, Shards: 2, Label: "t-reg-s-" + b.Name})
			if !strings.Contains(a.Label(), "shards=2") {
				t.Errorf("%s: built with Shards 2, labelled %q", b.Name, a.Label())
			}
		}
		if b.Caps.Elastic || b.Caps.Sharded {
			a := b.New(registry.Config{Capacity: 4096, Elastic: &registry.ElasticParams{}, Label: "t-reg-e-" + b.Name})
			el, ok := a.(registry.Elastic)
			if !ok {
				t.Errorf("%s: built with Elastic, %T does not implement registry.Elastic", b.Name, a)
				continue
			}
			if el.CapacityNow() >= a.Capacity() {
				t.Errorf("%s: built with Elastic, CapacityNow %d is not below Capacity %d", b.Name, el.CapacityNow(), a.Capacity())
			}
		}
		for _, padded := range []bool{false, true} {
			// 32 names in one stripe are one bitmap word, and the first
			// claim (a cache's first refill included) makes just that word
			// resident: 8 bytes packed, a 64-byte line padded.
			cfg := registry.Config{Capacity: 32, Padded: padded, Label: "t-reg-p-" + b.Name}
			if b.Caps.Sharded {
				cfg.Shards = 1
			}
			a := b.New(cfg)
			fp, ok := a.(registry.Footprint)
			if !ok {
				break
			}
			before := fp.ResidentBytes()
			if a.Acquire(shm.NewProc(0, prng.NewStream(1, 0), nil, 0)) < 0 {
				t.Errorf("%s: first acquire failed", b.Name)
				break
			}
			want := int64(8)
			if padded && !b.Caps.Cached {
				want = 64
			}
			if got := fp.ResidentBytes() - before; got != want {
				t.Errorf("%s: Padded %v, the first claim made %d bytes resident, want %d", b.Name, padded, got, want)
			}
		}
	}
}
