package shmrename

// Benchmark harness: one benchmark per reproduction experiment E1-E12
// (ALGORITHMS.md §6) plus native multicore wall-clock benchmarks. Each
// iteration executes a complete renaming instance with a fresh seed and
// reports the step complexity of the execution alongside wall-clock time,
// so `go test -bench=. -benchmem` regenerates the measured columns of
// the experiment tables (ALGORITHMS.md §6) at benchmark scale.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"shmrename/internal/backfill"
	"shmrename/internal/balls"
	"shmrename/internal/baseline"
	"shmrename/internal/core"
	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
	"shmrename/internal/sharded"
	"shmrename/internal/shm"
	"shmrename/internal/sortnet"
	"shmrename/internal/tas"
	"shmrename/internal/taureg"
)

// simBench runs factory-built instances on the deterministic simulator and
// reports the mean step complexity over the iterations.
func simBench(b *testing.B, factory func() core.Instance) {
	b.Helper()
	var totalMax int64
	for i := 0; i < b.N; i++ {
		inst := factory()
		res := sched.Run(sched.Config{
			N: inst.N(), Seed: uint64(i), Fast: sched.FastFIFO, Body: inst.Body,
		})
		if err := sched.VerifyUnique(res, inst.M()); err != nil {
			b.Fatal(err)
		}
		totalMax += sched.MaxSteps(res)
	}
	b.ReportMetric(float64(totalMax)/float64(b.N), "steps/proc-max")
}

// nativeBench runs factory-built instances on real goroutines.
func nativeBench(b *testing.B, factory func() core.Instance) {
	b.Helper()
	var totalMax int64
	for i := 0; i < b.N; i++ {
		inst := factory()
		res := sched.RunNative(inst.N(), uint64(i), inst.Body)
		if err := sched.VerifyUnique(res, inst.M()); err != nil {
			b.Fatal(err)
		}
		totalMax += sched.MaxSteps(res)
	}
	b.ReportMetric(float64(totalMax)/float64(b.N), "steps/proc-max")
}

// BenchmarkE1BallsIntoBins regenerates the Lemma 3 workload.
func BenchmarkE1BallsIntoBins(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d,c=2", n), func(b *testing.B) {
			r := prng.New(1)
			empties := 0
			for i := 0; i < b.N; i++ {
				e, _ := balls.Lemma3Trial(n, 2, r)
				empties += e
			}
			b.ReportMetric(float64(empties)/float64(b.N), "empty-bins")
		})
	}
}

// BenchmarkE2TightSim measures Theorem 5 step complexity on the simulator.
func BenchmarkE2TightSim(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			simBench(b, func() core.Instance {
				return core.NewTight(n, core.TightConfig{SelfClocked: true})
			})
		})
	}
}

// BenchmarkE3Geometry measures layout construction (the space side of
// Theorem 5 is asserted in the harness; here we time it).
func BenchmarkE3Geometry(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bits := 0
			for i := 0; i < b.N; i++ {
				g := core.NewGeometry(n, 2, core.Corrected)
				bits = g.TotalBits()
			}
			b.ReportMetric(float64(bits)/float64(n), "bits/name")
		})
	}
}

// BenchmarkE4LooseRounds measures the Lemma 6 algorithm.
func BenchmarkE4LooseRounds(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d,l=2", n), func(b *testing.B) {
			var survivors int64
			for i := 0; i < b.N; i++ {
				inst := core.NewLooseRounds(n, core.RoundsConfig{Ell: 2})
				res := sched.Run(sched.Config{
					N: n, Seed: uint64(i), Fast: sched.FastFIFO, Body: inst.Body,
				})
				survivors += int64(sched.CountStatus(res, sched.Unnamed))
			}
			b.ReportMetric(float64(survivors)/float64(b.N), "survivors")
		})
	}
}

// BenchmarkE5Corollary7 measures the full loose renaming composition.
func BenchmarkE5Corollary7(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d,l=2", n), func(b *testing.B) {
			simBench(b, func() core.Instance {
				return core.NewCorollary7(n, core.RoundsConfig{Ell: 2}, nil)
			})
		})
	}
}

// BenchmarkE6LooseClusters measures the Lemma 8 algorithm.
func BenchmarkE6LooseClusters(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d,l=1", n), func(b *testing.B) {
			var survivors int64
			for i := 0; i < b.N; i++ {
				inst := core.NewLooseClusters(n, core.ClustersConfig{Ell: 1})
				res := sched.Run(sched.Config{
					N: n, Seed: uint64(i), Fast: sched.FastFIFO, Body: inst.Body,
				})
				survivors += int64(sched.CountStatus(res, sched.Unnamed))
			}
			b.ReportMetric(float64(survivors)/float64(b.N), "survivors")
		})
	}
}

// BenchmarkE7Corollary9 measures the second loose composition.
func BenchmarkE7Corollary9(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d,l=1", n), func(b *testing.B) {
			simBench(b, func() core.Instance {
				return core.NewCorollary9(n, core.ClustersConfig{Ell: 1}, nil)
			})
		})
	}
}

// BenchmarkE8Comparison reruns the motivating comparison natively: the
// τ-register algorithm against the Batcher network and the folklore
// baselines (wall-clock on real cores; steps/proc-max carries the paper's
// metric).
func BenchmarkE8Comparison(b *testing.B) {
	const n = 1 << 12
	b.Run("tight-tau", func(b *testing.B) {
		nativeBench(b, func() core.Instance {
			return core.NewTight(n, core.TightConfig{SelfClocked: true, Padded: true})
		})
	})
	b.Run("sortnet-batcher", func(b *testing.B) {
		nativeBench(b, func() core.Instance { return sortnet.NewRenamerN(n) })
	})
	b.Run("uniform-probe", func(b *testing.B) {
		nativeBench(b, func() core.Instance { return baseline.NewUniformProbe(n) })
	})
	b.Run("segmented-probe", func(b *testing.B) {
		nativeBench(b, func() core.Instance { return baseline.NewSegmentedProbe(n, 0) })
	})
	b.Run("linear-scan", func(b *testing.B) {
		nativeBench(b, func() core.Instance { return baseline.NewLinearScan(n) })
	})
}

// BenchmarkE9SoftwareTAS measures the software-TAS overhead factor.
func BenchmarkE9SoftwareTAS(b *testing.B) {
	const n = 1 << 8
	b.Run("hardware", func(b *testing.B) {
		simBench(b, func() core.Instance {
			return core.NewLooseRounds(n, core.RoundsConfig{Ell: 1})
		})
	})
	b.Run("software", func(b *testing.B) {
		simBench(b, func() core.Instance {
			return core.NewLooseRoundsOn(n, core.RoundsConfig{Ell: 1},
				tas.NewRWSpace("rwtas", n, n))
		})
	})
}

// BenchmarkE10Adversaries measures scheduling-policy overhead and the
// algorithms' robustness to it.
func BenchmarkE10Adversaries(b *testing.B) {
	const n = 128
	policies := map[string]func() sched.Policy{
		"round-robin": sched.RoundRobin,
		"random":      sched.Random,
		"collider":    sched.Collider,
	}
	for name, mk := range policies {
		b.Run(name, func(b *testing.B) {
			var totalMax int64
			for i := 0; i < b.N; i++ {
				inst := core.NewTight(n, core.TightConfig{SelfClocked: true})
				res := sched.Run(sched.Config{
					N: n, Seed: uint64(i), Policy: mk(), Body: inst.Body,
					Spaces: inst.Probeables(),
				})
				if err := sched.VerifyUnique(res, n); err != nil {
					b.Fatal(err)
				}
				totalMax += sched.MaxSteps(res)
			}
			b.ReportMetric(float64(totalMax)/float64(b.N), "steps/proc-max")
		})
	}
}

// BenchmarkE11CountingDevice measures raw device throughput under real
// contention: concurrent goroutines hammering one self-clocked device.
func BenchmarkE11CountingDevice(b *testing.B) {
	for _, procs := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := taureg.NewDevice("bench", 64, 32, true)
				done := make(chan struct{})
				for g := 0; g < procs; g++ {
					go func(g int) {
						p := shm.NewProc(g, prng.NewStream(uint64(i), g), nil, 1<<20)
						r := p.Rand()
						for k := 0; k < 64; k++ {
							if dev.AcquireBit(p, r.Intn(64)) == taureg.Won {
								break
							}
						}
						done <- struct{}{}
					}(g)
				}
				for g := 0; g < procs; g++ {
					<-done
				}
				if dev.ConfirmedCount() > 32 {
					b.Fatal("threshold exceeded")
				}
			}
		})
	}
}

// BenchmarkE12Geometries contrasts the corrected and paper-literal layouts
// end to end.
func BenchmarkE12Geometries(b *testing.B) {
	const n = 1 << 10
	for _, kind := range []core.GeometryKind{core.Corrected, core.PaperLiteral} {
		b.Run(kind.String(), func(b *testing.B) {
			simBench(b, func() core.Instance {
				return core.NewTight(n, core.TightConfig{Geometry: kind, SelfClocked: true})
			})
		})
	}
}

// BenchmarkTightNative is the headline multicore benchmark: τ-register
// tight renaming on real goroutines and sync/atomic, up to 2^16 processes.
func BenchmarkTightNative(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nativeBench(b, func() core.Instance {
				return core.NewTight(n, core.TightConfig{SelfClocked: true, Padded: true})
			})
		})
	}
}

// BenchmarkCorollary7Native is the loose counterpart at scale.
func BenchmarkCorollary7Native(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d,l=2", n), func(b *testing.B) {
			nativeBench(b, func() core.Instance {
				return core.NewCorollary7(n, core.RoundsConfig{Ell: 2}, nil)
			})
		})
	}
}

// BenchmarkSortnetVariants compares the two practical sorting-network
// instantiations of the [7] construction: equal depth, different
// comparator counts (bitonic ≈ 2× registers).
func BenchmarkSortnetVariants(b *testing.B) {
	const n = 1 << 12
	entries := make([]int, n)
	for i := range entries {
		entries[i] = i
	}
	b.Run("odd-even", func(b *testing.B) {
		nativeBench(b, func() core.Instance {
			return sortnet.NewRenamer(sortnet.OddEvenMergeSort(sortnet.NextPow2(n)), entries)
		})
	})
	b.Run("bitonic", func(b *testing.B) {
		nativeBench(b, func() core.Instance {
			return sortnet.NewRenamer(sortnet.Bitonic(sortnet.NextPow2(n)), entries)
		})
	})
}

// BenchmarkAblationTightC sweeps the cluster constant c (the "suitably
// large constant" of §III): larger c means more requests per block and
// fewer fallback stragglers, but more rounds. The steps/proc-max metric
// exposes the trade-off ALGORITHMS.md §3 calls out.
func BenchmarkAblationTightC(b *testing.B) {
	const n = 1 << 12
	for _, c := range []float64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("c=%g", c), func(b *testing.B) {
			simBench(b, func() core.Instance {
				return core.NewTight(n, core.TightConfig{C: c, SelfClocked: true})
			})
		})
	}
}

// BenchmarkAblationRoundsEll sweeps ℓ in the Lemma 6 algorithm: survivors
// shrink polynomially in (log log n) per unit of ℓ while the step budget
// multiplies, the trade-off of Corollary 7.
func BenchmarkAblationRoundsEll(b *testing.B) {
	const n = 1 << 14
	for _, ell := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("l=%d", ell), func(b *testing.B) {
			var survivors int64
			for i := 0; i < b.N; i++ {
				inst := core.NewLooseRounds(n, core.RoundsConfig{Ell: ell})
				res := sched.Run(sched.Config{
					N: n, Seed: uint64(i), Fast: sched.FastFIFO, Body: inst.Body,
				})
				survivors += int64(sched.CountStatus(res, sched.Unnamed))
			}
			b.ReportMetric(float64(survivors)/float64(b.N), "survivors")
		})
	}
}

// BenchmarkAblationBackfill compares the backfill strategies on the
// Corollary 7 overflow workload.
func BenchmarkAblationBackfill(b *testing.B) {
	const n = 1 << 12
	strategies := map[string]backfill.Strategy{
		"uniform": backfill.Uniform{},
		"sweep":   backfill.Sweep{},
		"hybrid":  backfill.Hybrid{},
	}
	for name, strat := range strategies {
		b.Run(name, func(b *testing.B) {
			simBench(b, func() core.Instance {
				return core.NewCorollary7(n, core.RoundsConfig{Ell: 2}, strat)
			})
		})
	}
}

// BenchmarkE13Adaptive measures the adaptive extension: steps stay
// O(log k) as the (unknown) participant count grows.
func BenchmarkE13Adaptive(b *testing.B) {
	for _, k := range []int{1 << 8, 1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var totalMax int64
			for i := 0; i < b.N; i++ {
				inst := core.NewAdaptive(1<<14, core.AdaptiveConfig{})
				res := sched.Run(sched.Config{
					N: k, Seed: uint64(i), Fast: sched.FastFIFO, Body: inst.Body,
				})
				if err := sched.VerifyUnique(res, inst.M()); err != nil {
					b.Fatal(err)
				}
				totalMax += sched.MaxSteps(res)
			}
			b.ReportMetric(float64(totalMax)/float64(b.N), "steps/proc-max")
		})
	}
}

// BenchmarkChurnSim measures the canonical E15 churn workload (k = n/4
// workers cycling names on a capacity-n arena, longlived.DefaultChurn) on
// the deterministic simulator and reports the mean shared-memory steps per
// successful acquire. TestChurnRegistryGolden (internal/longlived) pins
// the same workload's step counts per seed.
func BenchmarkChurnSim(b *testing.B) {
	for _, name := range []string{"level-array", "tau-longlived"} {
		backend, ok := registry.Lookup(name)
		if !ok {
			b.Fatalf("backend %q is not registered", name)
		}
		for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				k := n / 4
				var steps float64
				for i := 0; i < b.N; i++ {
					arena := backend.New(registry.Config{Capacity: n})
					mon := longlived.NewMonitor(arena.NameBound())
					sched.Run(sched.Config{
						N:         k,
						Seed:      uint64(i),
						Fast:      sched.FastFIFO,
						Body:      longlived.ChurnBody(arena, mon, longlived.DefaultChurn),
						AfterStep: arena.Clock(),
					})
					if err := mon.Err(); err != nil {
						b.Fatal(err)
					}
					if held := arena.Held(); held != 0 {
						b.Fatalf("%d names held after drain", held)
					}
					steps += mon.StepsPerAcquire()
				}
				b.ReportMetric(steps/float64(b.N), "steps/acquire")
			})
		}
	}
}

// BenchmarkChurnNative measures public-API arena churn on real goroutines:
// each iteration is one full acquire/release cycle per worker.
func BenchmarkChurnNative(b *testing.B) {
	for _, backend := range stormBackends() {
		b.Run(string(backend), func(b *testing.B) {
			arena, err := NewArena(ArenaConfig{Capacity: 256, Backend: backend, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// b.Fatal must not be called from RunParallel worker
			// goroutines; collect the first error and fail afterwards.
			var firstErr atomic.Pointer[error]
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					name, err := arena.Acquire()
					if err == nil {
						err = arena.Release(name)
					}
					if err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
				}
			})
			if p := firstErr.Load(); p != nil {
				b.Fatal(*p)
			}
		})
	}
}

// BenchmarkShardedNative is the headline benchmark of the striped frontend:
// tight provisioning (capacity = workers), every worker cycling
// acquire/yield/release so the arena runs at full occupancy. shards=0 is
// the unsharded level-array baseline; the steps/acquire metric carries the
// machine-independent structural cost (home-shard scans are capacity/S
// long instead of capacity).
func BenchmarkShardedNative(b *testing.B) {
	const workers = 64
	churn := longlived.ChurnConfig{Cycles: 50, Yield: true}
	run := func(b *testing.B, mk func() longlived.Arena) {
		b.Helper()
		var steps float64
		for i := 0; i < b.N; i++ {
			arena := mk()
			mon := longlived.NewMonitor(arena.NameBound())
			sched.RunNative(workers, uint64(i), longlived.ChurnBody(arena, mon, churn))
			if err := mon.Err(); err != nil {
				b.Fatal(err)
			}
			if held := arena.Held(); held != 0 {
				b.Fatalf("%d names held after drain", held)
			}
			steps += mon.StepsPerAcquire()
		}
		b.ReportMetric(steps/float64(b.N), "steps/acquire")
	}
	b.Run("shards=0", func(b *testing.B) {
		run(b, func() longlived.Arena {
			return longlived.NewLevel(workers, longlived.LevelConfig{Padded: true, Label: "bench-single"})
		})
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			run(b, func() longlived.Arena {
				return sharded.New(workers, sharded.Config{
					Shards: shards, Padded: true, Label: fmt.Sprintf("bench-s%d", shards),
				})
			})
		})
	}
}

// BenchmarkWordEngineNative contrasts the per-bit probe path with the
// word-granular claim engine on the level arena under tight provisioning
// (capacity = workers, full occupancy): the regime where the probe path
// pays random-probe misses plus a per-name backstop scan and the word path
// pays one snapshot-scan-CAS per word. steps/acquire carries the
// machine-independent reduction, which TestChurnMultiWordGolden
// (internal/longlived) pins in the simulator.
func BenchmarkWordEngineNative(b *testing.B) {
	const workers = 64
	churn := longlived.ChurnConfig{Cycles: 50, Yield: true}
	for _, wordScan := range []bool{false, true} {
		name := "scan=bit"
		if wordScan {
			name = "scan=word"
		}
		b.Run(name, func(b *testing.B) {
			var steps float64
			for i := 0; i < b.N; i++ {
				arena := longlived.NewLevel(workers, longlived.LevelConfig{
					WordScan: wordScan, Padded: true, Label: "bench-we-" + name,
				})
				mon := longlived.NewMonitor(arena.NameBound())
				sched.RunNative(workers, uint64(i), longlived.ChurnBody(arena, mon, churn))
				if err := mon.Err(); err != nil {
					b.Fatal(err)
				}
				if held := arena.Held(); held != 0 {
					b.Fatalf("%d names held after drain", held)
				}
				steps += mon.StepsPerAcquire()
			}
			b.ReportMetric(steps/float64(b.N), "steps/acquire")
		})
	}
}

// BenchmarkBatchAcquireRelease measures the public batch API: one
// iteration is one AcquireN/ReleaseAll cycle of the given batch size, so
// ns/op divided by the batch size is the amortized per-name cost the
// batch API exists to lower.
func BenchmarkBatchAcquireRelease(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			arena, err := NewArena(ArenaConfig{Capacity: 256, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				names, err := arena.AcquireN(batch)
				if err != nil {
					b.Fatal(err)
				}
				if err := arena.ReleaseAll(names); err != nil {
					b.Fatal(err)
				}
			}
			st := arena.Stats()
			b.ReportMetric(float64(st.AcquireSteps)/float64(st.Acquires), "steps/acquire")
		})
	}
}

// BenchmarkArenaFill measures building an arena and filling it from one
// goroutine: one iteration is NewArena plus one Acquire per holder, the
// set-up each hold-time benchmark workload times. The default level arena
// (1000 holders, `steady`) probes its way past ever more saturated low
// levels, so the cost per fill tracks how cheaply a probe loop passes a
// level whose every word is hinted full. The sharded cell (capacity 1200
// over 2 shards, `tight`) fills to 83% occupancy, where the shard frontend
// and the backstop word scans join in. The elastic cell (200 holders,
// `diurnal`) grows its ladder during the fill.
func BenchmarkArenaFill(b *testing.B) {
	for _, c := range []struct {
		name    string
		cfg     ArenaConfig
		holders int
	}{
		{"level/cap=4096", ArenaConfig{Capacity: 4096, Seed: 1}, 1000},
		{"sharded/cap=1200", ArenaConfig{Capacity: 1200, Backend: ArenaBackendSharded, Shards: 2, Seed: 1}, 1000},
		{"elastic/cap=4096", ArenaConfig{Capacity: 4096, Backend: ArenaElastic, Seed: 1}, 200},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arena, err := NewArena(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < c.holders; j++ {
					if _, err := arena.Acquire(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkArenaChurn measures two workers churning one arena: each of 2
// goroutines acquires 500 names of its own at capacity 4096, then
// repeatedly releases a random one of them and acquires a replacement.
// One iteration is one release+acquire pair, split evenly between the
// workers, so at -cpu 2 ns/op is wall time per pair with both workers
// running at once. The cells pair each backend with and without a lease
// cache (LeaseBlocks 64): at -cpu 2 a cache hit is only cheaper than the
// backend's word claim if it writes nothing the other worker touches
// (PERF.md, "Lease-cache hits on more than one core"). level+leased turns
// on crash-recovery leases without a cache, so every claim and release
// also updates its word's lease record (PERF.md, "Word lease records").
// B/holder is the memory side of the trade: Stats().ResidentBytes over
// the 1,000 names held, read once after the fill (PERF.md, "Line-aligned
// bitmaps").
func BenchmarkArenaChurn(b *testing.B) {
	const (
		workers  = 2
		holders  = 500
		capacity = 4096
	)
	for _, c := range []struct {
		name string
		cfg  ArenaConfig
	}{
		{"level", ArenaConfig{Capacity: capacity}},
		{"level+leased", ArenaConfig{Capacity: capacity, Lease: &LeaseConfig{TTL: time.Hour}}},
		{"sharded2", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 2}},
		{"level+lease64", ArenaConfig{Capacity: capacity, LeaseBlocks: 64}},
		{"sharded2+lease64", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 2, LeaseBlocks: 64}},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Seed = 1
			arena, err := NewArena(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer arena.Close()
			// Each worker fills its own holders, so its names come from
			// wherever its own calls are served; the clock starts once
			// both are full. The generator lives on the worker's stack: two
			// heap-allocated ones would share a cache line that both
			// workers write on every pair.
			filled, start := make(chan struct{}, workers), make(chan struct{})
			done := make(chan error, workers)
			for w := range workers {
				go func(w, pairs int) {
					var r prng.Rand
					r.SeedStream(1, w)
					names := make([]int, holders)
					var err error
					for i := 0; i < holders && err == nil; i++ {
						names[i], err = arena.Acquire()
					}
					filled <- struct{}{}
					<-start
					for ; pairs > 0 && err == nil; pairs-- {
						i := r.Intn(holders)
						if err = arena.Release(names[i]); err == nil {
							names[i], err = arena.Acquire()
						}
					}
					done <- err
				}(w, (b.N+w)/workers)
			}
			for range workers {
				<-filled
			}
			resident := arena.Stats().ResidentBytes
			b.ResetTimer()
			close(start)
			for range workers {
				if err := <-done; err != nil {
					b.Error(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(resident)/(workers*holders), "B/holder")
		})
	}
}

// BenchmarkArenaHandoff measures a producer/consumer split: one goroutine
// acquires names in batches of 16 and hands each batch over a channel to
// a second goroutine, which releases them; at most 8 batches are in
// flight. One iteration is one name handed over, so ns/op is wall time per
// name. With a lease cache (LeaseBlocks 64), the producer's slot runs dry
// every block while the consumer's slot fills, so each refill meets a
// sibling with names: the case in which a refill watches its siblings
// before it takes from one (PERF.md, "Sibling refills"). refills/64 and
// steals/64 are the cache's refills and steals per 64 names.
func BenchmarkArenaHandoff(b *testing.B) {
	const capacity, batch, inflight = 4096, 16, 8
	for _, c := range []struct {
		name string
		cfg  ArenaConfig
	}{
		{"level", ArenaConfig{Capacity: capacity}},
		{"level+leased", ArenaConfig{Capacity: capacity, Lease: &LeaseConfig{TTL: time.Hour}}},
		{"sharded2", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 2}},
		{"level+lease64", ArenaConfig{Capacity: capacity, LeaseBlocks: 64}},
		{"sharded2+lease64", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 2, LeaseBlocks: 64}},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Seed = 1
			arena, err := NewArena(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer arena.Close()
			full, free := make(chan []int, inflight), make(chan []int, inflight)
			for range inflight {
				free <- make([]int, 0, batch)
			}
			done := make(chan error, 1)
			go func() {
				var err error
				for names := range full {
					for _, n := range names {
						if e := arena.Release(n); e != nil && err == nil {
							err = e
						}
					}
					free <- names[:0]
				}
				done <- err
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				names := <-free
				for range batch {
					n, err := arena.Acquire()
					if err != nil {
						b.Fatal(err)
					}
					names = append(names, n)
				}
				full <- names
			}
			close(full)
			if err := <-done; err != nil {
				b.Error(err)
			}
			b.StopTimer()
			st := arena.Stats()
			b.ReportMetric(float64(st.CacheRefills)*64/float64(b.N), "refills/64")
			b.ReportMetric(float64(st.CacheSteals)*64/float64(b.N), "steals/64")
		})
	}
}

// BenchmarkCountingDeviceParallel measures raw acquisition throughput on
// real cores via the public wrapper.
func BenchmarkCountingDeviceParallel(b *testing.B) {
	dev, err := NewCountingDevice(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			dev.Acquire(1, 1)
		}
	})
}

// BenchmarkPublicAPI exercises the facade end to end.
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Rename(Config{N: 1 << 12, Algorithm: TightTau, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
