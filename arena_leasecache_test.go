package shmrename

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestLeaseBlocksValidation pins the config surface: the block size is
// bounded by one bitmap word and requires the word-granular claim engine.
func TestLeaseBlocksValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ArenaConfig
	}{
		{"negative", ArenaConfig{Capacity: 64, LeaseBlocks: -1}},
		{"over-word", ArenaConfig{Capacity: 64, LeaseBlocks: 65}},
		{"bit-probe", ArenaConfig{Capacity: 64, LeaseBlocks: 64, Probe: ProbeBit}},
	} {
		if _, err := NewArena(tc.cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	for _, blocks := range []int{0, 1, 64} {
		a, err := NewArena(ArenaConfig{Capacity: 256, LeaseBlocks: blocks})
		if err != nil {
			t.Fatalf("LeaseBlocks=%d rejected: %v", blocks, err)
		}
		a.Close()
	}
}

// TestLeaseBlocksOpenArenaRejected: the mmap-backed namespace is flat and
// shared across processes; a per-process cache is not configurable there.
func TestLeaseBlocksOpenArenaRejected(t *testing.T) {
	_, err := OpenArena(t.TempDir()+"/arena", ArenaConfig{Capacity: 64, LeaseBlocks: 64})
	if err == nil {
		t.Fatal("OpenArena accepted LeaseBlocks")
	}
}

// TestLeaseBlocksChurn drives the cached arena through the public API:
// distinct names while held, released names recycled, stats counters
// moving, and the backend untouched in steady state.
func TestLeaseBlocksChurn(t *testing.T) {
	a, err := NewArena(ArenaConfig{
		Capacity:    1024,
		Backend:     ArenaBackendSharded,
		Shards:      2,
		LeaseBlocks: 64,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	held := map[int]bool{}
	for i := 0; i < 200; i++ {
		n, err := a.Acquire()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if held[n] {
			t.Fatalf("name %d granted while held", n)
		}
		held[n] = true
		if i%3 == 0 {
			if err := a.Release(n); err != nil {
				t.Fatalf("release %d: %v", n, err)
			}
			delete(held, n)
		}
	}
	st := a.Stats()
	if st.CacheRefills == 0 {
		t.Fatal("no block leases recorded — cache inactive")
	}
	if st.Acquires != 200 || int(st.Releases) != 200/3+1 {
		t.Fatalf("stats acquires/releases = %d/%d", st.Acquires, st.Releases)
	}
	// Steady-state churn serves from the cache: steps/acquire must sit
	// far below the uncached word path (which pays at least one step per
	// block of probes).
	if perAcq := float64(st.AcquireSteps) / float64(st.Acquires); perAcq > 1 {
		t.Fatalf("steps/acquire %.2f — fast path not engaged", perAcq)
	}
}

// TestLeaseBlocksReleaseGuards pins the not-held guard through the cache:
// a released (parked) name cannot be released again, and parked names are
// not "held".
func TestLeaseBlocksReleaseGuards(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 256, LeaseBlocks: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(n); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(n); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release of parked name: %v", err)
	}
	if got := a.Held(); got != 0 {
		t.Fatalf("Held() = %d with every name released", got)
	}
}

// TestLeaseBlocksBatch exercises AcquireN/ReleaseAll through the cache:
// the all-or-nothing batch contract must hold unchanged.
func TestLeaseBlocksBatch(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 512, LeaseBlocks: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	names, err := a.AcquireN(100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("name %d twice in batch", n)
		}
		seen[n] = true
	}
	if err := a.ReleaseAll(names); err != nil {
		t.Fatal(err)
	}
	if err := a.ReleaseAll(names[:2]); err == nil {
		t.Fatal("re-release of parked batch accepted")
	}
}

// TestLeaseBlocksCrashRecovery composes caching with leases end to end on
// the public surface: a handle that goes silent loses parked and granted
// names alike to the sweep, and the pool is whole afterwards.
func TestLeaseBlocksCrashRecovery(t *testing.T) {
	a, err := NewArena(ArenaConfig{
		Capacity:    64,
		LeaseBlocks: 16,
		Seed:        1,
		Lease:       &LeaseConfig{TTL: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n, err := a.Acquire() // leases a block: 1 granted + 15 parked
	if err != nil {
		t.Fatal(err)
	}
	_ = n // the holder "crashes": no release, no heartbeat
	time.Sleep(5 * time.Millisecond)
	swept := a.SweepStale()
	if swept != 16 {
		t.Fatalf("sweep reclaimed %d names, want the whole 16-name block", swept)
	}
	// The pool must be whole: full capacity acquirable, pairwise distinct.
	names, err := a.AcquireN(a.Capacity() - 16) // 16 re-parked by the new lease blocks
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, m := range names {
		if seen[m] {
			t.Fatalf("name %d granted twice after sweep", m)
		}
		seen[m] = true
	}
}

// TestLeaseBlocksConcurrentStorm hammers the cached arena from many
// goroutines (the race job runs this under -race): held names stay
// pairwise distinct and nothing leaks.
func TestLeaseBlocksConcurrentStorm(t *testing.T) {
	a, err := NewArena(ArenaConfig{
		Capacity:    2048,
		Backend:     ArenaBackendSharded,
		Shards:      4,
		LeaseBlocks: 32,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var owner sync.Map
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []int
			for i := 0; i < 300; i++ {
				n, err := a.Acquire()
				if err != nil {
					errs <- err
					return
				}
				if prev, loaded := owner.LoadOrStore(n, g); loaded {
					errs <- fmt.Errorf("name %d granted to %d while held by %d", n, g, prev.(int))
					return
				}
				held = append(held, n)
				if len(held) > 4 {
					m := held[0]
					held = held[1:]
					owner.Delete(m)
					if err := a.Release(m); err != nil {
						errs <- err
						return
					}
				}
			}
			for _, m := range held {
				owner.Delete(m)
				if err := a.Release(m); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := a.Held(); got != 0 {
		t.Fatalf("%d names leaked", got)
	}
}

// TestLeaseBlocksFirstFit: block leases are first-fit, so a two-stripe
// cached arena churning at 25% occupancy from GOMAXPROCS goroutines keeps
// every issued name — holders and parked blocks alike fit there — in the
// lower stripe, whatever stripe each pooled proc calls home.
func TestLeaseBlocksFirstFit(t *testing.T) {
	const capacity = 4096
	a, err := NewArena(ArenaConfig{
		Capacity:    capacity,
		Backend:     ArenaBackendSharded,
		Shards:      2,
		LeaseBlocks: 64,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	workers := runtime.GOMAXPROCS(0)
	per := capacity / 4 / workers
	limit := a.NameBound() / 2
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]int, 0, per)
			for i := 0; i < 20*per; i++ {
				if len(held) == per {
					if err := a.Release(held[0]); err != nil {
						errs <- err
						return
					}
					held = held[1:]
				}
				n, err := a.Acquire()
				if err != nil {
					errs <- err
					return
				}
				if n >= limit {
					errs <- fmt.Errorf("issued name %d at or above NameBound/2 = %d", n, limit)
					return
				}
				held = append(held, n)
			}
			for _, n := range held {
				if err := a.Release(n); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
