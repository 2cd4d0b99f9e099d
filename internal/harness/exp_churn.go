package harness

import (
	"fmt"

	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
)

// e15Backends enumerates the registry for the churn sweep: every
// deterministic, directly churnable backend — no caching layers (they may
// report full below capacity while names sit parked in other workers'
// slots, breaking the every-worker-drains invariant) and no external
// OS-backed arenas (native-only). A backend that registers with those
// flags joins the E15 table with no change here; the enumeration
// currently yields elastic-level, level-array, sharded and tau-longlived,
// a superset of the canonical level-array and tau-longlived pair whose
// (backend, n) rows BENCH_2.json tracks.
func e15Backends() []registry.Backend {
	var out []registry.Backend
	for _, b := range registry.All() {
		if b.Caps.Deterministic && !b.Caps.Cached && !b.Caps.External {
			out = append(out, b)
		}
	}
	return out
}

// expE15 exercises the long-lived arena (internal/longlived) under
// sustained churn: k of n potential clients are active at a time, each
// repeatedly acquiring a name, holding it for a seeded-random number of
// steps, and releasing it. The one-shot experiments E1-E14 cannot express
// this scenario — names there are claimed once and kept forever.
//
// Two properties are measured per (backend, n, k) cell:
//
//   - adaptivity: the largest name ever issued relative to the peak number
//     of simultaneous holders (the level arena should keep the ratio a
//     small constant; the τ arena issues names across all device blocks);
//   - amortized cost: mean shared-memory steps per successful acquire.
//
// Every trial additionally asserts the long-lived safety property (no two
// live holders ever share a name, via longlived.Monitor) and that all
// names return to the pool once the churn drains.
func expE15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Long-lived churn: level-array vs tau-register arena",
		Claim: "k churning holders on a capacity-n arena: unique live names, max issued name tracks k (level arena), bounded steps/acquire",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E15 acquire/release churn",
				"backend", "n", "k", "cycles", "peak active", "max name+1",
				"name/active", "steps/acquire", "acquires")
			churn := longlived.DefaultChurn
			for _, b := range e15Backends() {
				for _, n := range cfg.sweep(pow2s(8, 10), pow2s(8, 13)) {
					for _, k := range []int{n / 16, n / 4, n} {
						if k < 1 {
							continue
						}
						var maxActive, maxName, acquires int64
						var stepsPerAcq float64
						for t := 0; t < cfg.trials(); t++ {
							arena := b.New(registry.Config{Capacity: n})
							mon := longlived.NewMonitor(arena.NameBound())
							res := sched.Run(sched.Config{
								N:         k,
								Seed:      cfg.Seed + uint64(t),
								Fast:      sched.FastFIFO,
								Body:      longlived.ChurnBody(arena, mon, churn),
								AfterStep: arena.Clock(),
							})
							if err := mon.Err(); err != nil {
								panic(fmt.Sprintf("E15 %s n=%d k=%d trial %d: %v", b.Name, n, k, t, err))
							}
							if got := sched.CountStatus(res, sched.Unnamed); got != k {
								panic(fmt.Sprintf("E15 %s n=%d k=%d trial %d: %d of %d workers drained", b.Name, n, k, t, got, k))
							}
							if held := arena.Held(); held != 0 {
								panic(fmt.Sprintf("E15 %s n=%d k=%d trial %d: %d names still held after drain", b.Name, n, k, t, held))
							}
							if b.Caps.Elastic {
								assertElasticAdaptive("E15", b.Name, n, k, arena, mon)
							}
							if a := mon.MaxActive(); a > maxActive {
								maxActive = a
							}
							if m := mon.MaxName(); m > maxName {
								maxName = m
							}
							acquires += mon.Acquires()
							stepsPerAcq += mon.StepsPerAcquire()
						}
						tab.AddRow(b.Name, n, k, churn.Cycles, maxActive, maxName+1,
							float64(maxName+1)/float64(maxActive),
							stepsPerAcq/float64(cfg.trials()), acquires)
					}
				}
			}
			tab.Note = "name/active ~ O(1) for the level arena is the LevelArray adaptivity property"
			return []*metrics.Table{tab}
		},
	}
}
