// Package shmrename is a library of randomized renaming algorithms for
// asynchronous shared-memory systems, reproducing "Randomized Renaming in
// Shared Memory Systems" (Berenbrink, Brinkmann, Elsässer, Friedetzky,
// Nagel; IPDPS 2015).
//
// Renaming assigns n processes distinct names from a name space of size m
// (tight: m = n; loose: m > n) using test-and-set operations, against an
// adaptive adversary that schedules steps and crashes processes. The
// paper's contributions, all implemented here:
//
//   - Tight renaming in O(log n) steps w.h.p. using τ-registers — special
//     hardware combining a block of test-and-set bits with a counting
//     device that admits at most τ winners (simulated cycle-accurately in
//     this library, §II.B-C of the paper).
//   - Loose renaming onto m = n + 2n/(log log n)^ℓ names in
//     O((log log n)^ℓ) steps w.h.p. (Lemma 6 / Corollary 7).
//   - Loose renaming onto m = n + 2n/(log n)^ℓ names in O((log log n)²)
//     steps w.h.p. (Lemma 8 / Corollary 9).
//
// Baselines from the literature (sorting-network renaming, uniform
// probing, deterministic linear scan, software test-and-set) are included
// for comparison, along with a deterministic adversarial scheduler, an
// experiment harness regenerating every claim (see ALGORITHMS.md §6), and
// wall-clock benchmarks.
//
// # Quick start
//
//	res, err := shmrename.Rename(shmrename.Config{
//		N:         1024,
//		Algorithm: shmrename.TightTau,
//		Seed:      42,
//	})
//	if err != nil { ... }
//	// res.Names[pid] is the distinct name process pid acquired.
//
// Set Config.Simulate to run under the deterministic adversarial
// simulator and choose a Schedule ("fifo", "random", "round-robin",
// "collider", "starve") and a CrashFraction; leave it false to run on
// real goroutines with sync/atomic test-and-set.
//
// # Long-lived renaming
//
// The paper's algorithms are one-shot: a name, once acquired, is held
// forever. NewArena provides the long-lived variant for churn workloads —
// sustained acquire/release traffic in which names return to the pool and
// are reacquired indefinitely:
//
//	arena, err := shmrename.NewArena(shmrename.ArenaConfig{Capacity: 256})
//	name, err := arena.Acquire() // unique among current holders
//	// ...
//	err = arena.Release(name)    // name becomes reacquirable
//
// Long-lived semantics: at every instant the names of live holders are
// pairwise distinct (holder = a client between a successful Acquire and
// the matching Release). Capacity sizes the arena for that many
// concurrent holders; beyond it the arena serves best-effort, and
// Acquire reports ErrArenaFull once repeated full passes found no free
// slot (expected under over-subscription, and possible — though
// vanishingly unlikely — when sustained churn races every pass). Only
// the holder of a name may Release it, and a name must not be used after
// its release. Three backends exist: ArenaLevel (LevelArray-style levels
// of packed TAS bitmaps whose issued names track the instantaneous
// occupancy), ArenaTau (the §III τ-register algorithm adapted with
// releasable counting-device bits), and ArenaBackendSharded (below).
// Releases are shm.OpClear operations in the kernel, so the adversarial
// simulator covers churn schedules; the E15 harness experiment records
// the workload.
//
// # Sharded arenas for multicore traffic
//
// The level and τ backends funnel every operation through one shared
// structure, so concurrent goroutine traffic serializes on its bitmap
// words. The sharded backend stripes the arena across
// ArenaConfig.Shards independent sub-arenas owning disjoint name ranges:
//
//	arena, err := shmrename.NewArena(shmrename.ArenaConfig{
//		Capacity: 1024,
//		Backend:  shmrename.ArenaBackendSharded,
//		Shards:   8, // 0 = GOMAXPROCS
//	})
//
// Acquire tries the caller's cached home shard first (one bounded pass),
// then steals from two randomly chosen other shards, and finally sweeps
// all shards deterministically — so the termination and safety contracts
// match the single-backend arena exactly, while
// disjoint shards keep concurrent claimers on disjoint cache lines and
// cut the per-acquire scan from O(Capacity) to O(Capacity/Shards) under
// tight provisioning. Per-shard occupancy hints steer acquires away from
// shards recently observed full at no step cost. The price is name
// tightness: issued names lie within the shards × per-shard-bound
// envelope reported by Arena.NameBound (ALGORITHMS.md §8 discusses the
// trade-off). Experiment E16 and BenchmarkShardedNative measure the
// native scalability; PERF.md records the numbers.
//
// # The word-granular claim engine and batch operations
//
// Every arena searches its packed TAS bitmaps in one of two probe modes
// (ArenaConfig.Probe). ProbeBit is the paper's cost model: one
// shared-memory access examines one name. ProbeWord — the default — is
// the word-granular claim engine (ALGORITHMS.md §10): one access
// snapshots a 64-name bitmap word and claims a free bit via CAS, fallback
// scans walk words instead of names, and saturation hints steer probes
// away from words observed full. At full occupancy this cuts the
// structural steps/acquire cost by 3–35× (experiment E17; PERF.md has the
// matrix) while preserving all safety and termination contracts.
//
// Churn-heavy services amortize further with the batch API:
//
//	names, err := arena.AcquireN(64)  // up to 64 names per memory access
//	// ...
//	err = arena.ReleaseAll(names)     // word-adjacent names coalesce
//
// AcquireN is all-or-nothing (a partial batch is rolled back and
// ErrArenaFull reported); ReleaseAll releases every valid held name and
// joins the errors for the rest. Arena.Stats exposes the cumulative
// steps-per-acquire the perf gates track.
//
// # Word-block lease caches and tail latency
//
// The claim engine makes one shared-memory step buy 64 names; for
// latency-sensitive services ArenaConfig.LeaseBlocks goes one further
// and makes most acquires buy zero. Each worker slot leases whole
// 64-name blocks from the shared bitmap (one ClaimUpTo step per block,
// first-fit from the lowest free words) and serves Acquire and Release
// from a per-worker free list, so the fast path takes no step-counted
// shared-memory operation:
//
//	arena, err := shmrename.NewArena(shmrename.ArenaConfig{
//		Capacity:    4096, // provision well above peak holders
//		Backend:     shmrename.ArenaBackendSharded,
//		LeaseBlocks: 64,   // names leased per block (rounded to 64)
//	})
//
// The cache spills whole blocks back under Release-side pressure and
// steals from sibling slots before falling through to the shared path,
// so conservation holds exactly: every name is free, parked in exactly
// one cache, or granted to exactly one holder. The cost is name
// tightness — parked blocks are claimed but serve nobody, so issued
// names reach past the live holders by the cached-block headroom; the
// first-fit leases keep that headroom at the bottom of the name space —
// which is why the cache suits provisioned arenas (capacity
// comfortably above peak holders) rather than tight ones. It composes
// with crash recovery: a cached block is one lease, Heartbeat renews
// parked names along with granted ones, and the recovery sweep reclaims
// abandoned blocks whole. OpenArena rejects LeaseBlocks, since a
// per-worker cache cannot span OS processes. BenchmarkArenaChurn
// measures the effect at equal capacity (its sharded2+lease64 cell
// against sharded2), and experiment E19 the open-loop latency (Poisson
// and bursty scheduled arrivals, coordinated-omission-free latency,
// saturation knees); PERF.md and ALGORITHMS.md §12 document both.
//
// # Execution modes and cost model
//
// Both modes share all algorithm and substrate code; only the per-step
// transport differs (PERF.md has the measured numbers):
//
//   - Simulated mode: each process is a pull-style coroutine; a granted
//     step is two coroutine stack switches with no channel operations and
//     no per-step allocation. Executions are deterministic given (seed,
//     schedule). Operation descriptors address shared structures by
//     interned integer SpaceIDs, never strings.
//   - Native mode: processes are goroutines hitting sync/atomic directly;
//     a step is one atomic operation on the target structure.
//
// Name spaces are word-packed test-and-set bitmaps (64 names per word, one
// bit per name, CAS-on-word claims). Native-mode instances can opt into a
// line-aligned layout (packed words rounded up to whole 64-byte cache
// lines) so that no two spaces share a line.
package shmrename
