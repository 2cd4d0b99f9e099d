package harness

import (
	"fmt"

	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
)

// e20Backends enumerates the registry for the diurnal ramp: every
// deterministic elastic backend (resizes must serialize under the
// simulated gate for the phases to replay). Today the enumeration yields
// elastic-level; a future elastic backend joins the experiment — and the
// adaptivity assertions below — by registering with Caps.Elastic.
func e20Backends() []registry.Backend {
	var out []registry.Backend
	for _, b := range registry.All() {
		if b.Caps.Elastic && b.Caps.Deterministic {
			out = append(out, b)
		}
	}
	return out
}

// e20Phases is the diurnal k schedule on a capacity-n arena: load climbs
// from a trickle to full provisioning and back down; the hold-time
// benchmark's diurnal workload drives the public API through it.
func e20Phases(n int) []int {
	ks := []int{n / 64, n / 16, n / 4, n, n / 4, n / 16, n / 64}
	for i, k := range ks {
		if k < 1 {
			ks[i] = 1
		}
	}
	return ks
}

// expE20 runs a rising-then-falling holder count over ONE persistent
// elastic arena — no rebuilds between phases, so residency carries over
// and must adapt in both directions. Each phase is a deterministic
// simulated churn of k workers; per phase the table records the resident
// capacity and footprint at phase end next to the amortized acquire cost.
//
// Three structural claims are asserted per trial, not just recorded:
// every phase's churn drains whole (unique live names, nothing held
// after), residency climbs with the ramp (the peak phase ends with more
// capacity resident than the opening trickle — and never less than that
// phase's own peak holder count, measured, not assumed: the scheduler
// decides how many of the k workers actually overlap), and the final
// trickle phase finds the ladder drained back inside the envelope of a
// small multiple of its own k — growth tracks contention up AND down,
// the tentpole elasticity claim.
func expE20() Experiment {
	return Experiment{
		ID:    "E20",
		Title: "Elastic diurnal ramp: residency tracks rising and falling load",
		Claim: "one persistent elastic arena under a diurnal k ramp grows residency to cover the peak and drains it back near the floor once contention subsides",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E20 elastic diurnal ramp",
				"backend", "n", "phase", "k", "cycles", "peak active", "cap@end",
				"peak cap", "resident KiB", "steps/acquire", "acquires")
			for _, b := range e20Backends() {
				for _, n := range cfg.sweep([]int{512}, []int{4096}) {
					phases := e20Phases(n)
					for t := 0; t < cfg.trials(); t++ {
						arena := b.New(registry.Config{
							Capacity: n,
							Label:    fmt.Sprintf("e20-%s-%d-%d", b.Name, n, t),
						})
						el, ok := arena.(registry.Elastic)
						if !ok {
							panic(fmt.Sprintf("E20 %s: Caps.Elastic backend lacks registry.Elastic", b.Name))
						}
						fp, _ := arena.(registry.Footprint)
						peakCap := make([]int, len(phases))
						peakActive := make([]int64, len(phases))
						for pi, k := range phases {
							// Low phases run long enough for the shrink
							// hysteresis (ShrinkAfter consecutive eligible
							// releases per retired level) to converge.
							cycles := 8
							if min := 768 / k; cycles < min {
								cycles = min
							}
							mon := longlived.NewMonitor(arena.NameBound())
							res := sched.Run(sched.Config{
								N:    k,
								Seed: cfg.Seed + uint64(1000*t+pi),
								Fast: sched.FastFIFO,
								Body: longlived.ChurnBody(arena, mon, longlived.ChurnConfig{
									Cycles: cycles, HoldMin: 0, HoldMax: 4,
								}),
								AfterStep: arena.Clock(),
							})
							if err := mon.Err(); err != nil {
								panic(fmt.Sprintf("E20 %s n=%d phase %d trial %d: %v", b.Name, n, pi, t, err))
							}
							if got := sched.CountStatus(res, sched.Unnamed); got != k {
								panic(fmt.Sprintf("E20 %s n=%d phase %d trial %d: %d of %d workers drained", b.Name, n, pi, t, got, k))
							}
							if held := arena.Held(); held != 0 {
								panic(fmt.Sprintf("E20 %s n=%d phase %d trial %d: %d names still held", b.Name, n, pi, t, held))
							}
							peakCap[pi] = el.PeakCapacity()
							peakActive[pi] = mon.MaxActive()
							var kib float64
							if fp != nil {
								kib = float64(fp.ResidentBytes()) / 1024
							}
							if t == 0 {
								tab.AddRow(b.Name, n, pi, k, cycles, mon.MaxActive(), el.CapacityNow(),
									el.PeakCapacity(), fmt.Sprintf("%.1f", kib), mon.StepsPerAcquire(), mon.Acquires())
							}
						}
						// The ladder shrinks as each phase's churn drains, so the
						// growth half of the claim reads the monotone PeakCapacity
						// snapshots: it must move between the opening trickle and
						// the peak phase — the ramp forced real growth.
						mid := len(phases) / 2
						if peakCap[mid] <= peakCap[0] {
							panic(fmt.Sprintf("E20 %s n=%d trial %d: peak capacity %d never rose above the opening trickle's %d", b.Name, n, t, peakCap[mid], peakCap[0]))
						}
						if int64(el.PeakCapacity()) < peakActive[mid] {
							panic(fmt.Sprintf("E20 %s n=%d trial %d: peak capacity %d below the peak phase's %d concurrent holders", b.Name, n, t, el.PeakCapacity(), peakActive[mid]))
						}
						kFinal := phases[len(phases)-1]
						if now, env := el.CapacityNow(), elasticEnvelope(n, int64(16*kFinal)); int64(now) > env {
							panic(fmt.Sprintf("E20 %s n=%d trial %d: residency %d did not drain inside the %d-name envelope of the final k=%d phase", b.Name, n, t, now, env, kFinal))
						}
					}
				}
			}
			tab.Note = "one arena per trial, never rebuilt: cap@end rises with the ramp to cover peak concurrency and falls back toward the 64-name floor"
			return []*metrics.Table{tab}
		},
	}
}
