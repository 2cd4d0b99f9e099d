package shmrename

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestPublicShapes pins what NewArena builds for every public shape: the
// backend label, name bound, capacity, resident capacity and lease layer.
// The rows hold at any GOMAXPROCS: a lease cache has one slot per P, and
// a sharded row that leaves Shards at 0 stripes GOMAXPROCS ways, clamped
// to Capacity.
func TestPublicShapes(t *testing.T) {
	lease := &LeaseConfig{TTL: time.Second}
	procs := runtime.GOMAXPROCS(0)
	shards := min(procs, 1000)
	autoSharded := fmt.Sprintf("sharded-level(shards=%d,steal=2,scan=word)", shards)
	cached := func(inner string, block int) string {
		return fmt.Sprintf("%s+leasecache(block=%d,slots=%d)", inner, block, procs)
	}
	const (
		level   = "level-array(levels=5,probes=4,scan=word)"
		sharded = "sharded-level(shards=4,steal=2,scan=word)"
	)
	cases := []struct {
		name                string
		cfg                 ArenaConfig
		label               string
		bound, capa, capNow int
		leased              bool
	}{
		{"default", ArenaConfig{Capacity: 1000},
			level, 1960, 1000, 1000, false},
		{"probe-bit", ArenaConfig{Capacity: 1000, Probe: ProbeBit},
			"level-array(levels=5,probes=4,scan=bit)", 1960, 1000, 1000, false},
		{"level+elastic", ArenaConfig{Capacity: 1000, Elastic: &ElasticConfig{}},
			"elastic-level(levels=1/5,probes=4,scan=word)", 1960, 1000, 64, false},
		{"elastic", ArenaConfig{Capacity: 1000, Backend: ArenaElastic},
			"elastic-level(levels=1/5,probes=4,scan=word)", 1960, 1000, 64, false},
		{"elastic-min-max", ArenaConfig{Capacity: 1000, Backend: ArenaElastic,
			Elastic: &ElasticConfig{MinCapacity: 200, MaxCapacity: 3000}},
			"elastic-level(levels=3/7,probes=4,scan=word)", 7032, 3000, 448, false},
		{"tau-word-leased", ArenaConfig{Capacity: 1000, Backend: ArenaTau, Lease: lease},
			"tau-longlived(devices=100,w=20,tau=10,scan=word)", 1000, 1000, 1000, true},
		{"tau-bit-leased", ArenaConfig{Capacity: 1000, Backend: ArenaTau, Probe: ProbeBit, Lease: lease},
			"tau-longlived(devices=100,w=20,tau=10,scan=bit)", 1000, 1000, 1000, true},
		{"sharded", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded, Shards: 4},
			sharded, 1768, 1000, 1000, false},
		{"sharded-elastic", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded, Shards: 4,
			Elastic: &ElasticConfig{}},
			sharded, 1768, 1000, 256, false},
		{"sharded-cached-leased-integrity", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded, Shards: 4,
			LeaseBlocks: 64, Lease: lease, Integrity: &IntegrityConfig{}},
			cached(sharded, 64), 1768, 1000, 1000, true},
		{"default-cached", ArenaConfig{Capacity: 1000, LeaseBlocks: 32},
			cached(level, 32), 1960, 1000, 1000, false},
		{"sharded-auto", ArenaConfig{Capacity: 1000, Backend: ArenaBackendSharded},
			autoSharded, shards * ladderBound((1000+shards-1)/shards), 1000, 1000, false},
		{"lease-cached", ArenaConfig{Capacity: 1000, Backend: "lease-cached"},
			cached(autoSharded, 64), shards * ladderBound((1000+shards-1)/shards), 1000, 1000, false},
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
