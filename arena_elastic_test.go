package shmrename

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shmrename/internal/registry"
)

// TestStatsCapacityAcrossBackends pins the ArenaStats capacity triple on
// every in-process registered backend: fixed-capacity backends report
// CapacityNow == PeakCapacity == Capacity before and after churn (the new
// fields are zero-delta), while Caps.Elastic backends track residency —
// below the ceiling at rest, covering the peak holder count under load.
func TestStatsCapacityAcrossBackends(t *testing.T) {
	const capacity, hold = 256, 200
	for _, b := range registry.All() {
		if b.Caps.External || b.Caps.DenseProcs {
			continue // OS-backed files / proc-ID-indexed backends: not NewArena surfaces
		}
		a, err := NewArena(ArenaConfig{Capacity: capacity, Backend: ArenaBackend(b.Name), Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		st := a.Stats()
		if b.Caps.Elastic {
			if st.CapacityNow >= capacity {
				t.Errorf("%s: CapacityNow %d at rest, want < %d", b.Name, st.CapacityNow, capacity)
			}
		} else if st.CapacityNow != capacity || st.PeakCapacity != capacity {
			t.Errorf("%s: fresh capacity stats %d/%d, want %d/%d (zero-delta)",
				b.Name, st.CapacityNow, st.PeakCapacity, capacity, capacity)
		}
		var names []int
		for i := 0; i < hold; i++ {
			n, err := a.Acquire()
			if err != nil {
				t.Fatalf("%s: acquire %d: %v", b.Name, i, err)
			}
			names = append(names, n)
		}
		if st := a.Stats(); b.Caps.Elastic {
			if st.CapacityNow < hold {
				t.Errorf("%s: CapacityNow %d with %d holders", b.Name, st.CapacityNow, hold)
			}
			if st.PeakCapacity < st.CapacityNow {
				t.Errorf("%s: PeakCapacity %d < CapacityNow %d", b.Name, st.PeakCapacity, st.CapacityNow)
			}
		} else if st.CapacityNow != capacity || st.PeakCapacity != capacity {
			t.Errorf("%s: capacity stats drifted to %d/%d under load, want %d/%d",
				b.Name, st.CapacityNow, st.PeakCapacity, capacity, capacity)
		}
		for _, n := range names {
			if err := a.Release(n); err != nil {
				t.Fatalf("%s: release %d: %v", b.Name, n, err)
			}
		}
		if st := a.Stats(); !b.Caps.Elastic && (st.CapacityNow != capacity || st.PeakCapacity != capacity) {
			t.Errorf("%s: capacity stats drifted to %d/%d after drain, want %d/%d",
				b.Name, st.CapacityNow, st.PeakCapacity, capacity, capacity)
		}
	}
}

// TestElasticArenaAdaptsThroughPublicAPI drives a full diurnal cycle
// through NewArena: residency starts at the floor, grows with the holder
// count, and — with no explicit resize call anywhere in the public API —
// the release-side hysteresis walks it back down under sustained small-k
// churn.
func TestElasticArenaAdaptsThroughPublicAPI(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 512, Backend: ArenaElastic, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.CapacityNow != 64 {
		t.Fatalf("fresh CapacityNow %d, want the 64-name base level", st.CapacityNow)
	}
	var names []int
	seen := make(map[int]bool)
	for i := 0; i < 400; i++ {
		n, err := a.Acquire()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if seen[n] {
			t.Fatalf("name %d issued twice", n)
		}
		seen[n] = true
		names = append(names, n)
	}
	peakSt := a.Stats()
	if peakSt.CapacityNow < 400 || peakSt.PeakCapacity < 400 {
		t.Fatalf("capacity stats %d/%d with 400 holders", peakSt.CapacityNow, peakSt.PeakCapacity)
	}
	if peakSt.ResidentBytes <= 0 {
		t.Fatalf("ResidentBytes %d on a ladder backend", peakSt.ResidentBytes)
	}
	for _, n := range names {
		if err := a.Release(n); err != nil {
			t.Fatal(err)
		}
	}
	// Night shift: single-name churn long enough for the hysteresis
	// (ShrinkAfter consecutive low-occupancy releases per retired level)
	// to drain the ladder back to the base level.
	for i := 0; i < 1500; i++ {
		n, err := a.Acquire()
		if err != nil {
			t.Fatalf("night cycle %d: %v", i, err)
		}
		if err := a.Release(n); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.CapacityNow != 64 {
		t.Fatalf("CapacityNow %d after sustained small-k churn, want 64", st.CapacityNow)
	}
	if st.PeakCapacity != peakSt.PeakCapacity {
		t.Fatalf("PeakCapacity moved %d -> %d across the shrink", peakSt.PeakCapacity, st.PeakCapacity)
	}
	if st.ResidentBytes >= peakSt.ResidentBytes {
		t.Fatalf("ResidentBytes %d did not drop from peak %d", st.ResidentBytes, peakSt.ResidentBytes)
	}
}

// TestElasticConfigRouting pins the config surface: the MaxCapacity
// ceiling raises the provisioned guarantee, ArenaLevel with a non-nil
// Elastic field is the same backend as ArenaElastic, the sharded frontend
// accepts per-shard elasticity, and every invalid combination is rejected
// with a diagnostic naming the offending field.
func TestElasticConfigRouting(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 64, Backend: ArenaElastic,
		Elastic: &ElasticConfig{MaxCapacity: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 256 {
		t.Fatalf("Capacity %d with MaxCapacity 256, want 256", a.Capacity())
	}
	lvl, err := NewArena(ArenaConfig{Capacity: 512, Backend: ArenaLevel, Elastic: &ElasticConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lvl.Stats().CapacityNow, 64; got != want {
		t.Fatalf("ArenaLevel+Elastic CapacityNow %d, want %d", got, want)
	}
	sh, err := NewArena(ArenaConfig{Capacity: 512, Backend: ArenaBackendSharded,
		Shards: 4, Elastic: &ElasticConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Stats().CapacityNow; got != 4*64 {
		t.Fatalf("sharded elastic CapacityNow %d, want one base level per shard (256)", got)
	}
	for i := 0; i < 400; i++ {
		if _, err := sh.Acquire(); err != nil {
			t.Fatalf("sharded elastic acquire %d: %v", i, err)
		}
	}
	if got := sh.Stats().CapacityNow; got < 400 {
		t.Fatalf("sharded elastic CapacityNow %d with 400 holders", got)
	}

	for _, tc := range []struct {
		name string
		cfg  ArenaConfig
		want string
	}{
		{"growat-high", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{GrowAt: 1.5}}, "GrowAt"},
		{"growat-negative", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{GrowAt: -0.1}}, "GrowAt"},
		{"shrinkat-above-growat", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{ShrinkAt: 0.9}}, "ShrinkAt"},
		{"shrinkat-negative", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{ShrinkAt: -0.1}}, "ShrinkAt"},
		{"mincap-negative", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{MinCapacity: -1}}, "MinCapacity"},
		{"mincap-above-ceiling", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{MinCapacity: 128}}, "MinCapacity"},
		{"maxcap-below-capacity", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{MaxCapacity: 32}}, "MaxCapacity"},
		{"maxcap-huge", ArenaConfig{Capacity: 64, Elastic: &ElasticConfig{MaxCapacity: 1 << 29}}, "MaxCapacity"},
		{"tau-rejects-elastic", ArenaConfig{Capacity: 64, Backend: ArenaTau, Elastic: &ElasticConfig{}}, "tau"},
	} {
		_, err := NewArena(tc.cfg)
		if err == nil {
			t.Errorf("%s: config accepted, want an error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestElasticConcurrentFillNoFalseFull is the regression test for the
// elastic arena's false full: two goroutines filling a fresh elastic arena
// race its ladder growth, and an acquire whose pass found the ladder full
// while the other goroutine held the resize guard used to count that pass
// as failed, reaching ErrArenaFull with the arena mostly empty. Every fill
// here stays far below capacity, so no acquire may fail.
func TestElasticConcurrentFillNoFalseFull(t *testing.T) {
	const fills, workers, perWorker = 200, 2, 500
	var failed, failedFills atomic.Int64
	for fill := 0; fill < fills; fill++ {
		a, err := NewArena(ArenaConfig{Capacity: 4096, Backend: ArenaElastic, Seed: uint64(fill)})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		var fillFailed atomic.Bool
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perWorker; i++ {
					if _, err := a.Acquire(); err != nil {
						failed.Add(1)
						fillFailed.Store(true)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if fillFailed.Load() {
			failedFills.Add(1)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d acquires failed in %d of %d two-goroutine fills to %d of capacity 4096",
			n, failedFills.Load(), fills, workers*perWorker)
	}
}
