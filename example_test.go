package shmrename_test

import (
	"fmt"
	"time"

	"shmrename"
)

// ExampleRename renames processes under the deterministic simulator: equal
// seeds give identical executions, and all names are pairwise distinct.
func ExampleRename() {
	res, err := shmrename.Rename(shmrename.Config{
		N:         8,
		Algorithm: shmrename.TightTau,
		Seed:      1,
		Simulate:  true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("name space:", res.M)
	fmt.Println("distinct:", res.Verify() == nil)
	fmt.Println("names:", res.Names)
	// Output:
	// name space: 8
	// distinct: true
	// names: [0 5 1 3 6 2 7 4]
}

// ExampleRename_loose uses Corollary 7: a slightly larger name space in
// exchange for doubly-logarithmic step complexity.
func ExampleRename_loose() {
	res, err := shmrename.Rename(shmrename.Config{
		N:         1024,
		Algorithm: shmrename.Corollary7,
		Ell:       2,
		Seed:      7,
		Simulate:  true,
	})
	if err != nil {
		panic(err)
	}
	named := 0
	for _, n := range res.Names {
		if n >= 0 {
			named++
		}
	}
	fmt.Println("m:", res.M)
	fmt.Println("all named:", named == 1024)
	fmt.Println("steps within budget:", res.MaxSteps < 64)
	// Output:
	// m: 1210
	// all named: true
	// steps within budget: true
}

// ExampleRename_adversarial runs against the contention-seeking adaptive
// adversary with crash injection; survivors still get distinct names.
func ExampleRename_adversarial() {
	res, err := shmrename.Rename(shmrename.Config{
		N:             64,
		Algorithm:     shmrename.TightTau,
		Seed:          3,
		Simulate:      true,
		Schedule:      "collider",
		CrashFraction: 0.25,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("crashed:", res.Crashed)
	fmt.Println("distinct:", res.Verify() == nil)
	// Output:
	// crashed: 16
	// distinct: true
}

// ExampleNewArena shows long-lived renaming: names are released back to
// the pool and reacquired, and live holders' names are always distinct.
func ExampleNewArena() {
	arena, err := shmrename.NewArena(shmrename.ArenaConfig{Capacity: 16, Seed: 1})
	if err != nil {
		panic(err)
	}
	a, _ := arena.Acquire()
	b, _ := arena.Acquire()
	fmt.Println("distinct while held:", a != b)
	fmt.Println("held:", arena.Held())
	if err := arena.Release(a); err != nil {
		panic(err)
	}
	c, _ := arena.Acquire() // the pool recycles released names
	fmt.Println("still distinct:", c != b)
	fmt.Println("within bound:", c < arena.NameBound())
	// Output:
	// distinct while held: true
	// held: 2
	// still distinct: true
	// within bound: true
}

// ExampleNewArena_sharded runs the striped multicore frontend: the name
// space is partitioned across four independent shards, acquires route
// through a cached home shard with work-stealing overflow, and names stay
// within the shards x per-shard-bound envelope.
func ExampleNewArena_sharded() {
	arena, err := shmrename.NewArena(shmrename.ArenaConfig{
		Capacity: 64,
		Backend:  shmrename.ArenaBackendSharded,
		Shards:   4,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	// Fill the arena to its guaranteed capacity: every acquire succeeds
	// and no two concurrently held names collide, across all shards.
	seen := make(map[int]bool)
	for i := 0; i < arena.Capacity(); i++ {
		n, err := arena.Acquire()
		if err != nil {
			panic(err)
		}
		seen[n] = true
	}
	fmt.Println("backend:", arena.Backend())
	fmt.Println("distinct names:", len(seen))
	fmt.Println("within envelope:", arena.NameBound() <= 4*arena.Capacity())
	// Output:
	// backend: sharded-level(shards=4,steal=2,scan=word)
	// distinct names: 64
	// within envelope: true
}

// ExampleNewArena_leased turns on lease stamps: a holder that stops
// heartbeating loses its names back to the pool after the TTL, so a
// crashed participant cannot leak name capacity forever.
func ExampleNewArena_leased() {
	arena, err := shmrename.NewArena(shmrename.ArenaConfig{
		Capacity: 16,
		Seed:     1,
		Lease:    &shmrename.LeaseConfig{TTL: time.Millisecond},
	})
	if err != nil {
		panic(err)
	}
	defer arena.Close()
	names, err := arena.AcquireN(4)
	if err != nil {
		panic(err)
	}
	fmt.Println("held:", arena.Held())
	// Simulate a crash: nobody releases, nobody heartbeats.
	_ = names
	time.Sleep(5 * time.Millisecond)
	fmt.Println("swept:", arena.SweepStale())
	fmt.Println("held after sweep:", arena.Held())
	// Output:
	// held: 4
	// swept: 4
	// held after sweep: 0
}

// ExampleNewArena_leaseCache turns on per-worker word-block lease caches:
// the first acquire leases a whole 64-name block in one word-granular
// claim, later acquires pop it thread-locally, and released names
// recirculate through the worker's cache — steady-state churn stops
// touching shared memory almost entirely. Provision capacity above the
// expected peak holders: parked names are claimed but serve nobody. Which
// worker cache serves a call depends on the pooled context it runs on, so
// the output below holds however many caches there are.
func ExampleNewArena_leaseCache() {
	arena, err := shmrename.NewArena(shmrename.ArenaConfig{
		Capacity:    4096,
		Backend:     shmrename.ArenaBackendSharded,
		Shards:      2,
		LeaseBlocks: 64,
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	defer arena.Close()
	a, _ := arena.Acquire() // leases a block: one backend claim
	fmt.Println("block leases:", arena.Stats().CacheRefills)
	b, _ := arena.Acquire() // pops a parked name when its worker has one
	fmt.Println("distinct while held:", a != b)
	arena.Release(a)
	arena.Release(b)
	fmt.Println("held after release:", arena.Held())
	for range 1000 {
		n, err := arena.Acquire()
		if err != nil {
			panic(err)
		}
		arena.Release(n)
	}
	// Only block leases cost shared-memory steps; cache hits cost none.
	st := arena.Stats()
	fmt.Println("fewer steps than acquires:", st.AcquireSteps < st.Acquires)
	// Output:
	// block leases: 1
	// distinct while held: true
	// held after release: 0
	// fewer steps than acquires: true
}

// ExampleNewArena_elastic turns on contention-proportional capacity: the
// arena starts resident at its smallest level, appends levels lock-free
// as occupancy crosses the growth threshold, and drains them back —
// epoch-gated, never blocking concurrent acquires — once demand
// subsides. Names stay unique and within the fixed NameBound throughout;
// only the resident footprint moves.
func ExampleNewArena_elastic() {
	arena, err := shmrename.NewArena(shmrename.ArenaConfig{
		Capacity: 1024,
		Seed:     1,
		Elastic:  &shmrename.ElasticConfig{},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("starts small:", arena.Stats().CapacityNow < arena.Capacity())
	names, err := arena.AcquireN(600)
	if err != nil {
		panic(err)
	}
	grown := arena.Stats().CapacityNow
	fmt.Println("grew to cover demand:", grown >= 600)
	for _, n := range names {
		if err := arena.Release(n); err != nil {
			panic(err)
		}
	}
	// Light churn drives the epoch-gated drain: each release below the
	// hysteresis threshold scores toward retiring the top level.
	for i := 0; i < 5000 && arena.Stats().CapacityNow == grown; i++ {
		n, _ := arena.Acquire()
		_ = arena.Release(n)
	}
	st := arena.Stats()
	fmt.Println("shrank after the burst:", st.CapacityNow < grown)
	fmt.Println("peak remembered:", st.PeakCapacity == grown)
	// Output:
	// starts small: true
	// grew to cover demand: true
	// shrank after the burst: true
	// peak remembered: true
}

// ExampleCountingDevice elects a bounded committee: no matter how many
// contenders race, at most τ win.
func ExampleCountingDevice() {
	dev, err := shmrename.NewCountingDevice(32, 4)
	if err != nil {
		panic(err)
	}
	winners := 0
	for i := 0; i < 100; i++ {
		if dev.Acquire(1, 32) >= 0 {
			winners++
		}
	}
	fmt.Println("winners:", winners)
	fmt.Println("confirmed:", dev.Confirmed())
	// Output:
	// winners: 4
	// confirmed: 4
}
