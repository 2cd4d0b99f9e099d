package shmrename

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestPublicShapes pins what NewArena builds for every public shape: the
// backend label, name bound, capacity, resident capacity, lease layer and
// the bytes resident after one Acquire. The rows hold at any GOMAXPROCS: a
// lease cache has one slot per P, and a sharded row that leaves Shards at
// 0 stripes GOMAXPROCS ways, clamped to Capacity.
//
// Resident bytes are the resident levels' saturation hints and the
// allocation the first Acquire installed — one line-aligned 64-byte line,
// or one packed 8-byte word per word a cache's first block spans, since
// the backend under a lease cache is packed. With leases on, that
// allocation also holds the level's word records, 16 bytes per bitmap
// word (a public arena has one holder, so it keeps one record per word,
// not a stamp per name), and nothing else is allocated for them. The τ
// arena reports no footprint.
func TestPublicShapes(t *testing.T) {
	lease := &LeaseConfig{TTL: time.Second}
	procs := runtime.GOMAXPROCS(0)
	shards := min(procs, 1000)
	perShard := (1000 + shards - 1) / shards
	autoSharded := fmt.Sprintf("sharded-level(shards=%d,steal=2,scan=word)", shards)
	cached := func(inner string, block int) string {
		return fmt.Sprintf("%s+leasecache(block=%d,slots=%d)", inner, block, procs)
	}
	const (
		level   = "level-array(levels=5,probes=4,scan=word)"
		sharded = "sharded-level(shards=4,steal=2,scan=word)"
		// padded is the one cache line a line-aligned level of up to 8
		// words installs, packed one bitmap word, and leasedWord one
		// packed bitmap word with its 16-byte record; hint is one level's
		// saturation hints (levels up to 4096 names).
		padded, packed, leasedWord, hint = 64, 8, 24, 8
	)
	// A first block spans one word per stripe it draws from: stripes
	// narrower than a word each give all their names.
	autoBlockWords := int64((64 + min(perShard, 64) - 1) / min(perShard, 64))
	cases := []struct {
		name                string
		cfg                 ArenaConfig
		label               string
		bound, capa, capNow int
		leased              bool
		resident            int64
	}{
		{"default", ArenaConfig{Capacity: 1000},
			level, 1960, 1000, 1000, false, ladderHints(1000) + padded},
		{"probe-bit", ArenaConfig{Capacity: 1000, Probe: ProbeBit},
			"level-array(levels=5,probes=4,scan=bit)", 1960, 1000, 1000, false, ladderHints(1000) + padded},
		{"level+elastic", ArenaConfig{Capacity: 1000, Elastic: &ElasticConfig{}},
			"elastic-level(levels=1/5,probes=4,scan=word)", 1960, 1000, 64, false, hint + padded},
		{"elastic", ArenaConfig{Capacity: 1000, Backend: ArenaElastic},
			"elastic-level(levels=1/5,probes=4,scan=word)", 1960, 1000, 64, false, hint + padded},
		{"elastic-min-max", ArenaConfig{Capacity: 1000, Backend: ArenaElastic,
			Elastic: &ElasticConfig{MinCapacity: 200, MaxCapacity: 3000}},
			"elastic-level(levels=3/7,probes=4,scan=word)", 7032, 3000, 448, false, 3*hint + padded},
		{"tau-word-leased", ArenaConfig{Capacity: 1000, Backend: ArenaTau, Lease: lease},
			"tau-longlived(devices=100,w=20,tau=10,scan=word)", 1000, 1000, 1000, true, 0},
		{"tau-bit-leased", ArenaConfig{Capacity: 1000, Backend: ArenaTau, Probe: ProbeBit, Lease: lease},
			"tau-longlived(devices=100,w=20,tau=10,scan=bit)", 1000, 1000, 1000, true, 0},
		{"sharded", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded, Shards: 4},
			sharded, 1768, 1000, 1000, false, 4*ladderHints(250) + padded},
		{"sharded-elastic", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded, Shards: 4,
			Elastic: &ElasticConfig{}},
			sharded, 1768, 1000, 256, false, 4*hint + padded},
		{"sharded-cached-leased-integrity", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded, Shards: 4,
			LeaseBlocks: 64, Lease: lease, Integrity: &IntegrityConfig{}},
			cached(sharded, 64), 1768, 1000, 1000, true,
			4*ladderHints(250) + leasedWord},
		{"default-cached", ArenaConfig{Capacity: 1000, LeaseBlocks: 32},
			cached(level, 32), 1960, 1000, 1000, false, ladderHints(1000) + packed},
		{"sharded-auto", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded},
			autoSharded, shards * ladderBound(perShard), 1000, 1000, false,
			int64(shards)*ladderHints(perShard) + padded},
		{"lease-cached", ArenaConfig{Capacity: 1000, Backend: "lease-cached"},
			cached(autoSharded, 64), shards * ladderBound(perShard), 1000, 1000, false,
			int64(shards)*ladderHints(perShard) + autoBlockWords*packed},
	}
	for _, c := range cases {
		a, err := NewArena(c.cfg)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := a.Backend(); got != c.label {
			t.Errorf("%s: Backend() = %q, want %q", c.name, got, c.label)
		}
		if got := a.NameBound(); got != c.bound {
			t.Errorf("%s: NameBound() = %d, want %d", c.name, got, c.bound)
		}
		if got := a.Capacity(); got != c.capa {
			t.Errorf("%s: Capacity() = %d, want %d", c.name, got, c.capa)
		}
		if got := a.Stats().CapacityNow; got != c.capNow {
			t.Errorf("%s: Stats().CapacityNow = %d, want %d", c.name, got, c.capNow)
		}
		if got := a.Leased(); got != c.leased {
			t.Errorf("%s: Leased() = %v, want %v", c.name, got, c.leased)
		}
		if _, err := a.Acquire(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got := a.Stats().ResidentBytes; got != c.resident {
			t.Errorf("%s: Stats().ResidentBytes after one Acquire = %d, want %d", c.name, got, c.resident)
		}
		a.Close()
	}
}

// ladderBound is the name bound of a fixed level ladder guaranteeing
// capacity holders: levels of 64, 128, ... names below capacity, then a
// capacity-sized backstop.
func ladderBound(capacity int) int {
	bound := capacity
	for size := 64; size < capacity; size *= 2 {
		bound += size
	}
	return bound
}

// ladderHints is the saturation-hint footprint of the level ladder that
// ladderBound sizes: one 8-byte hint word per 64 bitmap words of each
// level, resident from construction.
func ladderHints(capacity int) int64 {
	words := func(names int) int64 { return int64((names + 63) / 64) }
	hints := 8 * ((words(capacity) + 63) / 64)
	for size := 64; size < capacity; size *= 2 {
		hints += 8 * ((words(size) + 63) / 64)
	}
	return hints
}
