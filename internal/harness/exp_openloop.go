package harness

import (
	"fmt"

	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/openloop"
	"shmrename/internal/prng"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// e19Capacity provisions the E19 arenas: large enough that the cached
// variant's parked blocks (slots × 2×block) never starve the workers, so
// the comparison isolates serving cost, not provisioning policy.
const e19Capacity = 4096

// e19Backends enumerates the registry for the open-loop comparison: every
// word-scan sharded frontend — today the uncached sharded arena and its
// lease-cached wrapping, so the pair isolates exactly what the word-block
// caches buy. In-process only: external arenas pay mmap costs this
// latency harness would misattribute.
func e19Backends() []registry.Backend {
	var out []registry.Backend
	for _, b := range registry.All() {
		if b.Caps.Sharded && b.Caps.WordScan && !b.Caps.External {
			out = append(out, b)
		}
	}
	return out
}

// expE19 measures open-loop tail latency: Poisson and bursty arrival
// streams at fixed offered rates against the word-scan sharded arena,
// with and without the per-worker word-block lease caches, recording
// scheduled-arrival→completion latency into merged HDR-style histograms
// (metrics.Histogram) — the coordinated-omission-free methodology the
// hold-time benchmark's open-loop driver applies to the public API. A
// second table sweeps the offered rate and reports the saturation knee
// (openloop.Knee): the last rate each variant sustains at ≥90% of offered.
//
// This is a wall-clock experiment (native goroutines, like E16): the
// latencies are machine-dependent, but the structural claims the test
// suite pins are not — every arrival is accounted (served+dropped =
// offered), quantiles are ordered, nothing leaks, and the cached variant
// never knees below the uncached one.
func expE19() Experiment {
	return Experiment{
		ID:    "E19",
		Title: "Open-loop tail latency: word-block lease caches vs uncached word scan",
		Claim: "under clock-driven Poisson/bursty arrival, lease caches serve the common-case acquire with zero shared-memory steps and hold the p99 flat up to the saturation knee",
		Run: func(cfg Config) []*metrics.Table {
			lat := metrics.NewTable("E19 open-loop latency",
				"backend", "arrival", "rate/s", "offered", "served", "dropped",
				"achieved/s", "p50 ns", "p99 ns", "p999 ns")
			arrivals := cfg.sweep([]int{2000}, []int{20000})[0]
			rates := []float64{50e3}
			if cfg.Full {
				rates = []float64{50e3, 200e3}
			}
			for _, b := range e19Backends() {
				for _, shape := range []openloop.Arrival{openloop.Poisson, openloop.Bursty} {
					for _, rate := range rates {
						arena := b.New(registry.Config{Capacity: e19Capacity, Label: "e19-" + b.Name})
						res := openloop.Run(openloop.WrapArena(arena, cfg.Seed), openloop.Config{
							Rate:     rate,
							Arrivals: arrivals,
							Workers:  4,
							Arrival:  shape,
							Seed:     cfg.Seed,
						})
						if res.Served+res.Dropped != res.Offered {
							panic(fmt.Sprintf("E19 %s %s rate=%g: served %d + dropped %d != offered %d",
								b.Name, shape, rate, res.Served, res.Dropped, res.Offered))
						}
						drain(b.Name, arena)
						lat.AddRow(b.Name, shape.String(), rate, res.Offered, res.Served,
							res.Dropped, res.AchievedRate,
							res.Latency.Quantile(0.50), res.Latency.Quantile(0.99),
							res.Latency.Quantile(0.999))
					}
				}
			}
			lat.Note = "latency from scheduled arrival (open-loop): queueing delay behind a stalled arena is charged to every arrival it delays"

			knee := metrics.NewTable("E19 saturation knee",
				"backend", "rates swept", "knee rate/s", "achieved at knee/s")
			sweepRates := []float64{100e3, 500e3}
			if cfg.Full {
				sweepRates = []float64{100e3, 500e3, 1e6, 2e6, 4e6}
			}
			for _, b := range e19Backends() {
				arena := b.New(registry.Config{Capacity: e19Capacity, Label: "e19k-" + b.Name})
				points := openloop.Sweep(openloop.WrapArena(arena, cfg.Seed), openloop.Config{
					Arrivals: arrivals,
					Workers:  4,
					Seed:     cfg.Seed,
				}, sweepRates)
				k := openloop.Knee(points)
				if k < 0 {
					panic(fmt.Sprintf("E19 %s: below the knee even at %g/s", b.Name, sweepRates[0]))
				}
				drain(b.Name, arena)
				knee.AddRow(b.Name, len(points), points[k].Rate, points[k].AchievedRate)
			}
			knee.Note = fmt.Sprintf("knee = last offered rate sustained at >= %.0f%% (openloop.Knee)", openloop.KneeFraction*100)
			return []*metrics.Table{lat, knee}
		},
	}
}

// drain asserts an E19 arena ends empty — flushing parked blocks first on
// caching layers (via the registry's Flusher capability interface, so any
// future caching backend is drained the same way), since parked names are
// claimed but held by nobody.
func drain(name string, arena longlived.Arena) {
	if f, ok := arena.(registry.Flusher); ok {
		f.Flush(shm.NewProc(1<<22, prng.NewStream(1, 1<<22), nil, 0))
	}
	if held := arena.Held(); held != 0 {
		panic(fmt.Sprintf("E19 %s: %d names leaked", name, held))
	}
}
