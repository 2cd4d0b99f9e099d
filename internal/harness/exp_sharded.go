package harness

import (
	"fmt"
	"time"

	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
)

// e16Churn is the per-worker churn of every E16 cell; the E16 invariants
// test derives its expected acquire counts from it.
var e16Churn = longlived.ChurnConfig{Cycles: 24, HoldMin: 0, HoldMax: 4, Yield: true}

// e16Row is one E16 table row: a backend name, its stripe count (0 marks
// the unsharded baseline), and an arena constructor.
type e16Row struct {
	name   string
	shards int
	mk     func() longlived.Arena
}

// e16Rows builds the E16 sweep for one goroutine count from the registry:
// the unsharded baseline is the registered level-array backend and the
// sweep rows are the registered sharded frontend with the stripe count
// overridden through registry.Config.Shards — both forced to the per-bit
// probe path (Scan "bit") and line-aligned bitmaps (Padded), the shapes
// this native experiment measures. Routing construction through the
// registry keeps the baseline/frontend pair tied to the same constructors
// every other experiment and the conformance suite exercise.
func e16Rows(g int) []e16Row {
	level, ok := registry.Lookup("level-array")
	if !ok {
		panic("E16: level-array backend not registered")
	}
	shardedBackend, ok := registry.Lookup("sharded")
	if !ok {
		panic("E16: sharded backend not registered")
	}
	rows := []e16Row{{"level-array", 0, func() longlived.Arena {
		return level.New(registry.Config{
			Capacity: g, Scan: "bit", Padded: true, Label: "e16-single",
		})
	}}}
	for _, s := range []int{1, 2, 4, 8} {
		if s > g {
			continue
		}
		s := s
		rows = append(rows, e16Row{"sharded-level", s, func() longlived.Arena {
			return shardedBackend.New(registry.Config{
				Capacity: g, Shards: s, Scan: "bit", Padded: true,
				Label: fmt.Sprintf("e16-s%d", s),
			})
		}})
	}
	return rows
}

// expE16 measures the sharded arena frontend (internal/sharded) on real
// goroutines: native multicore Acquire/Release throughput and adaptivity
// under churn, sweeping the stripe count and the goroutine count. Workers
// yield while holding their name (ChurnConfig.Yield), so the instantaneous
// occupancy approaches the worker count even on few cores and the arena —
// provisioned tightly at capacity = workers — operates near full, the
// regime in which the single backend pays deep probe ladders and full
// backstop scans on every acquire while each stripe's ladder and backstop
// stay S times smaller.
//
// shards = 1 is the degenerate single-stripe frontend; the "level-array"
// rows are the unsharded backend itself, the baseline the sharded frontend
// must beat as goroutines grow. Per (backend, shards, goroutines) cell the
// table reports:
//
//   - kacq/s: successful acquires per wall-clock second (throughput; this
//     is a native, machine-dependent number — trends across rows, not the
//     absolute values, are the result);
//   - steps/acquire: mean shared-memory accesses per successful acquire
//     (machine-independent; the structural cost of finding a free slot);
//   - name/active: largest issued name+1 over peak simultaneous holders —
//     the tightness price of striping, bounded by the documented
//     shards × per-shard-bound envelope.
//
// Every trial additionally asserts the long-lived safety property (no two
// live holders ever share a name, within or across shards) and a full
// drain.
func expE16() Experiment {
	return Experiment{
		ID:    "E16",
		Title: "Sharded arena: native multicore churn, shard x goroutine sweep",
		Claim: "striped frontend scales Acquire/Release throughput with goroutines while names stay within the shards x per-shard bound envelope",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E16 native sharded churn",
				"backend", "shards", "gor", "capacity", "acquires",
				"kacq/s", "steps/acquire", "max name+1", "peak active", "name/active")
			churn := e16Churn
			gors := cfg.sweep([]int{4, 16, 64}, []int{4, 16, 64, 256, 1024})
			for _, g := range gors {
				rows := e16Rows(g)
				for _, rw := range rows {
					var acquires, maxName, maxActive int64
					var steps float64
					var elapsed time.Duration
					for t := 0; t < cfg.trials(); t++ {
						arena := rw.mk()
						mon := longlived.NewMonitor(arena.NameBound())
						start := time.Now()
						res := sched.RunNative(g, cfg.Seed+uint64(t),
							longlived.ChurnBody(arena, mon, churn))
						elapsed += time.Since(start)
						if err := mon.Err(); err != nil {
							panic(fmt.Sprintf("E16 %s shards=%d g=%d trial %d: %v", rw.name, rw.shards, g, t, err))
						}
						if got := sched.CountStatus(res, sched.Unnamed); got != g {
							panic(fmt.Sprintf("E16 %s shards=%d g=%d trial %d: %d of %d workers drained", rw.name, rw.shards, g, t, got, g))
						}
						if held := arena.Held(); held != 0 {
							panic(fmt.Sprintf("E16 %s shards=%d g=%d trial %d: %d names still held", rw.name, rw.shards, g, t, held))
						}
						acquires += mon.Acquires()
						steps += mon.StepsPerAcquire()
						if m := mon.MaxName(); m > maxName {
							maxName = m
						}
						if a := mon.MaxActive(); a > maxActive {
							maxActive = a
						}
					}
					tab.AddRow(rw.name, rw.shards, g, g, acquires,
						float64(acquires)/elapsed.Seconds()/1e3,
						steps/float64(cfg.trials()),
						maxName+1, maxActive,
						float64(maxName+1)/float64(maxActive))
				}
			}
			tab.Note = "native wall clock: compare trends across rows, not absolute values; shards=0 marks the unsharded baseline"
			return []*metrics.Table{tab}
		},
	}
}
