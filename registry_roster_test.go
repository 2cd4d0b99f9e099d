package shmrename

import (
	"testing"

	"shmrename/internal/registry"
)

// stormBackends derives the cross-backend roster of the public-API tests
// from the registry: every registered backend NewArena accepts by name and
// whose Release returns names directly to the shared pool — no external
// OS-backed arenas (OpenArena is their surface) and no caching layers
// (their parked names break the tests' exact held-count oracles; the
// conformance suite covers them with cache-aware laws). Today the
// enumeration yields elastic-level, level-array, sharded and
// tau-longlived — and a new backend registering with those capabilities
// joins every storm, lease, and batch test with no edits to their loops.
func stormBackends() []ArenaBackend {
	var out []ArenaBackend
	for _, b := range registry.All() {
		c := b.Caps
		if c.External || c.Cached {
			continue
		}
		out = append(out, ArenaBackend(b.Name))
	}
	return out
}

// defaultAndStormBackends prepends the "" default-backend selector, for
// tests that also pin the zero-value ArenaConfig path.
func defaultAndStormBackends() []ArenaBackend {
	return append([]ArenaBackend{""}, stormBackends()...)
}

// TestStormBackendsRoster pins that the roster stays in sync with the
// public constants: each named constant must appear (the constants resolve
// to registered backends), so a registry rename cannot silently drop a
// backend from the storm coverage.
func TestStormBackendsRoster(t *testing.T) {
	got := map[ArenaBackend]bool{}
	for _, b := range stormBackends() {
		got[b] = true
	}
	for _, want := range []ArenaBackend{ArenaLevel, ArenaTau, ArenaElastic, ArenaBackendSharded} {
		if !got[want] {
			t.Errorf("stormBackends missing %q; roster %v", want, stormBackends())
		}
	}
}
