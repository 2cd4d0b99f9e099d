package harness

import (
	"fmt"

	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
)

// e17Backends enumerates the (backend, scan-mode) matrix of the word-engine
// comparison from the registry: every unsharded deterministic in-process
// backend, crossed with the registry Config.Scan override — the "bit" rows
// are the paper's per-TAS probe path (the deterministic-mode golden
// contract), the "word" rows the word-granular claim engine behind the same
// config switch. Sharded and cached frontends are excluded (E19 measures
// them). Today the enumeration yields elastic-level, level-array and
// tau-longlived.
func e17Backends() []struct {
	Backend string
	Scan    string
	Elastic bool
	Make    func(capacity int) longlived.Arena
} {
	var out []struct {
		Backend string
		Scan    string
		Elastic bool
		Make    func(capacity int) longlived.Arena
	}
	for _, b := range registry.All() {
		c := b.Caps
		if !c.Deterministic || c.Sharded || c.Cached || c.External {
			continue
		}
		for _, scan := range []string{"bit", "word"} {
			b, scan := b, scan
			out = append(out, struct {
				Backend string
				Scan    string
				Elastic bool
				Make    func(capacity int) longlived.Arena
			}{b.Name, scan, c.Elastic, func(n int) longlived.Arena {
				return b.New(registry.Config{
					Capacity: n,
					Scan:     scan,
					Label:    fmt.Sprintf("e17-%s-%s", b.Name, scan),
				})
			}})
		}
	}
	return out
}

// e17Churn is the per-worker batch churn of every E17 cell.
var e17Churn = longlived.ChurnConfig{Cycles: 4, HoldMin: 0, HoldMax: 8}

// expE17 measures the word-granular claim engine against the per-bit probe
// path under tight provisioning: k = n/b workers churn batches of b names
// on a capacity-n arena, so peak demand equals capacity and every acquire
// searches a nearly full space — the regime in which the probe path pays
// per-bit random probes plus a per-name backstop scan while the word path
// pays one snapshot-scan-CAS per 64-name word. steps/acquire is the
// machine-independent structural cost per name; "vs bit" is the word row's
// reduction factor against its probe-path twin, held at >= 2x on the
// level ladder (TestE17WordEngineInvariants, TestChurnMultiWordGolden).
func expE17() Experiment {
	return Experiment{
		ID:    "E17",
		Title: "Word-granular claim engine: word vs bit scan x batch size",
		Claim: "at full occupancy the word path cuts steps/acquire >= 2x vs per-bit probes, growing with batch size via up-to-64-names-per-CAS claims",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E17 word vs bit scan under tight batch churn",
				"backend", "scan", "n", "batch", "k", "steps/acquire", "vs bit",
				"max name+1", "peak active", "acquires")
			for _, n := range cfg.sweep([]int{256}, []int{1024, 4096}) {
				for _, batch := range []int{1, 4, 16} {
					k := n / batch
					if k < 1 {
						continue
					}
					bitSteps := make(map[string]float64)
					for _, b := range e17Backends() {
						var maxActive, maxName, acquires int64
						var stepsPerAcq float64
						for t := 0; t < cfg.trials(); t++ {
							arena := b.Make(n)
							mon := longlived.NewMonitor(arena.NameBound())
							res := sched.Run(sched.Config{
								N:         k,
								Seed:      cfg.Seed + uint64(t),
								Fast:      sched.FastFIFO,
								Body:      longlived.BatchChurnBody(arena, mon, e17Churn, batch),
								AfterStep: arena.Clock(),
							})
							if err := mon.Err(); err != nil {
								panic(fmt.Sprintf("E17 %s/%s n=%d b=%d trial %d: %v", b.Backend, b.Scan, n, batch, t, err))
							}
							if got := sched.CountStatus(res, sched.Unnamed); got != k {
								panic(fmt.Sprintf("E17 %s/%s n=%d b=%d trial %d: %d of %d workers drained", b.Backend, b.Scan, n, batch, t, got, k))
							}
							if held := arena.Held(); held != 0 {
								panic(fmt.Sprintf("E17 %s/%s n=%d b=%d trial %d: %d names still held", b.Backend, b.Scan, n, batch, t, held))
							}
							if b.Elastic {
								assertElasticAdaptive("E17", b.Backend+"/"+b.Scan, n, k*batch, arena, mon)
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
						steps := stepsPerAcq / float64(cfg.trials())
						speedup := "-"
						switch b.Scan {
						case "bit":
							bitSteps[b.Backend] = steps
						case "word":
							speedup = fmt.Sprintf("%.1fx", bitSteps[b.Backend]/steps)
						}
						tab.AddRow(b.Backend, b.Scan, n, batch, k, steps, speedup,
							maxName+1, maxActive, acquires)
					}
				}
			}
			tab.Note = "tight provisioning: k x batch = capacity, full occupancy; 'vs bit' is the word row's steps/acquire reduction"
			return []*metrics.Table{tab}
		},
	}
}
