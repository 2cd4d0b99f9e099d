package harness

import (
	"fmt"

	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/prng"
	"shmrename/internal/recovery"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// e18TTL is the lease TTL of the fault-injection workload, in counter
// epochs. Every recovery phase advances the clock past it, so staleness is
// decided deterministically by the injected schedule, never by wall time.
const e18TTL = 8

// e18Backends enumerates the registry for fault injection: every leasable
// backend that the in-process crash machinery can drive — no external
// OS-backed arenas (they run their own on-open recovery against real
// processes) and no caching layers. A cached arena has one holder for
// every proc (the lease-cached registration pins it), so a crashed
// worker's names share leases with the survivors' and cannot be reclaimed
// apart from them, while E18 crashes single workers and checks that the
// survivors keep everything. The τ arena's documented device-bit leak is
// read off Caps.LeaksOnCrash instead of a hand-maintained flag.
func e18Backends() []registry.Backend {
	var out []registry.Backend
	for _, b := range registry.All() {
		if b.Caps.Leasable && !b.Caps.External && !b.Caps.Cached {
			out = append(out, b)
		}
	}
	return out
}

// e18Modes are the injected fault shapes, drawn per worker per round.
const (
	e18Survive    = iota // heartbeats through the sweeps, must keep its names
	e18Abandon           // stops dead holding names: stale client stamps
	e18PrePublish        // crashes after winning a bit, before its stamp: orphan
	e18MidRelease        // crashes after retiring a stamp, before the bit clear
	e18NumModes
)

// e18Counts aggregates one (backend, n) cell across trials and rounds.
type e18Counts struct {
	modes     [e18NumModes]int
	planted   int // suspect marks planted to simulate a crashed reaper
	adopted   int
	reclaimed int
	resumed   int
	leaked    int // τ device bits lost to documented crash windows
	sweepOps  int64
}

// e18Worker is one churn client of a fault round.
type e18Worker struct {
	p      *shm.Proc
	holder uint64
	names  []int
	mode   int
}

// expE18 is the fault-injection experiment: seeded crashes at every window
// of the lease protocol — workers abandoned mid-hold, killed between claim
// bit and stamp publish, killed between stamp retire and bit clear, and a
// reaper killed between suspect mark and reclaim — across all three
// lease-enabled backends. Each round then runs the recovery sweep twice
// (adopt, then reclaim) and verifies the robustness contract directly:
//
//   - no lost name: surviving heartbeating workers keep every name, and
//     every crashed holder's name is back in the pool after two sweeps
//     (bounded reclaim latency);
//   - no double grant: ownership is tracked across the whole trial, and a
//     third sweep must find nothing further to do (stability);
//   - accounting: reclaims + resumes equal the debris names exactly, and
//     adoptions bracket the injected orphan shapes (an orphan bit over a
//     stale tombstone from an earlier reclaim is swept directly, without
//     the adoption grace period).
//
// The τ arena's documented leak — crashes inside the two windows lose the
// holder's counting-device bit, names are still recovered — is measured
// rather than hidden: the final pool check acquires capacity minus the
// leaked bits, and the table reports the leak count.
func expE18() Experiment {
	return Experiment{
		ID:    "E18",
		Title: "Fault injection: lease recovery under seeded crashes",
		Claim: "crashes at every stamp-protocol window: survivors keep names, debris reclaimed in <= 2 sweeps, adoptions and reclaims account exactly",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E18 seeded crash recovery",
				"backend", "n", "workers", "rounds", "survived", "abandoned",
				"pre-publish", "mid-release", "reaper crashes", "adopted",
				"reclaimed", "resumed", "leaked tau bits", "sweep steps/name")
			const rounds, per = 3, 2
			for _, b := range e18Backends() {
				for _, n := range cfg.sweep([]int{128, 256}, pow2s(7, 11)) {
					k := n / 8
					var c e18Counts
					for t := 0; t < cfg.trials(); t++ {
						e18Trial(&c, b, n, k, rounds, per, cfg.Seed+uint64(t))
					}
					recovered := c.reclaimed + c.resumed
					perName := 0.0
					if recovered > 0 {
						perName = float64(c.sweepOps) / float64(recovered)
					}
					tab.AddRow(b.Name, n, k, rounds,
						c.modes[e18Survive], c.modes[e18Abandon],
						c.modes[e18PrePublish], c.modes[e18MidRelease],
						c.planted, c.adopted, c.reclaimed, c.resumed,
						c.leaked, perName)
				}
			}
			tab.Note = "every row passed: survivors intact, debris swept in 2 passes, third sweep idle, pool whole (minus leaked tau bits)"
			return []*metrics.Table{tab}
		},
	}
}

// e18Trial runs one seeded trial: rounds of inject-crash-recover-verify,
// then the pool-whole check.
func e18Trial(c *e18Counts, b registry.Backend, n, k, rounds, per int, seed uint64) {
	ep := shm.NewCounterEpochs(1)
	// Epochs alone (no pinned Holder) keeps the per-worker default holder
	// identities the survivor/debris oracles key on.
	arena, ok := b.New(registry.Config{Capacity: n, MaxPasses: 8, Epochs: ep}).(longlived.Recoverable)
	if !ok {
		panic(fmt.Sprintf("E18 %s: registered Leasable but not longlived.Recoverable", b.Name))
	}
	sw := recovery.NewSweeper(arena, recovery.Config{TTL: e18TTL, Epochs: ep})
	reaper := shm.NewProc(1<<20, prng.NewStream(seed, 1<<20), nil, 0)
	r := prng.NewStream(seed, 0xE18)
	// owner tracks every name's holder pid across the trial (0 free,
	// -1 crash debris awaiting recovery): the no-double-grant oracle.
	owner := make([]int, arena.NameBound())
	claim := func(w *e18Worker) int {
		name := arena.Acquire(w.p)
		if name < 0 {
			panic(fmt.Sprintf("E18 %s n=%d: acquire failed below capacity", b.Name, n))
		}
		if owner[name] != 0 {
			panic(fmt.Sprintf("E18 %s n=%d: name %d granted to %d while owned by %d",
				b.Name, n, name, w.p.ID(), owner[name]))
		}
		owner[name] = w.p.ID()
		w.names = append(w.names, name)
		return name
	}
	leakedTrial := 0
	for round := 0; round < rounds; round++ {
		workers := make([]*e18Worker, k)
		for i := range workers {
			pid := 1 + round*k + i
			workers[i] = &e18Worker{
				p:      shm.NewProc(pid, prng.NewStream(seed, pid), nil, 0),
				holder: uint64(pid)%shm.MaxHolder + 1,
			}
			for j := 0; j < per; j++ {
				claim(workers[i])
			}
		}
		// Seeded fault injection. Worker 0 always survives so every round
		// exercises the no-lost-name side too.
		var debris []int
		var stale []int // debris still carrying a live client stamp
		for i, w := range workers {
			w.mode = e18Survive
			if i > 0 {
				w.mode = r.Intn(e18NumModes)
			}
			c.modes[w.mode]++
			var wDebris []int
			switch w.mode {
			case e18Abandon:
				// The worker stops dead: names keep their client stamps,
				// which go stale once the clock passes the TTL.
				wDebris = w.names
				stale = append(stale, w.names...)
			case e18PrePublish:
				// The crash unwinds inside the acquire, before claim()
				// records anything: the orphan bit is debris alongside the
				// worker's regularly stamped names.
				orphan := e18Crash(arena, w, shm.CrashPrePublish, func() { claim(w) })
				wDebris = append([]int{orphan}, w.names...)
				stale = append(stale, w.names...)
				if b.Caps.LeaksOnCrash {
					leakedTrial++ // the device bit was never recorded
				}
			case e18MidRelease:
				victim := w.names[0]
				e18Crash(arena, w, shm.CrashMidRelease, func() { arena.Release(w.p, victim) })
				wDebris = w.names
				stale = append(stale, w.names[1:]...) // victim's stamp is gone
				if b.Caps.LeaksOnCrash {
					leakedTrial++ // swapped out of bitOf, never released
				}
			}
			for _, name := range wDebris {
				owner[name] = -1
			}
			debris = append(debris, wDebris...)
		}
		// One reaper crash per round when there is stale debris: a suspect
		// mark planted and never finished, exactly what a reaper dying
		// between BeginReclaim and Reclaim leaves behind.
		if len(stale) > 0 {
			name := stale[r.Intn(len(stale))]
			d, local := e18Domain(arena, name)
			if d.Stamps.BeginReclaim(local, d.Stamps.Load(local), ep.Now()) {
				c.planted++
			}
		}
		// Recovery: two sweep passes with the clock advanced past the TTL
		// before each, survivors heartbeating in between. Pass one adopts
		// orphans and reclaims stale client stamps; pass two reclaims the
		// adopted orphans once their grace lapses.
		var res [3]recovery.Result
		for pass := 0; pass < 2; pass++ {
			ep.Advance(e18TTL + 1)
			for _, w := range workers {
				if w.mode != e18Survive {
					continue
				}
				if got := longlived.HeartbeatHolder(arena, w.p, w.holder, ep.Now()); got != len(w.names) {
					panic(fmt.Sprintf("E18 %s n=%d: survivor %d renewed %d of %d leases",
						b.Name, n, w.p.ID(), got, len(w.names)))
				}
			}
			before := reaper.Steps()
			res[pass] = sw.Sweep(reaper)
			c.sweepOps += reaper.Steps() - before
		}
		// Bounded reclaim latency: two passes recovered every debris name.
		for _, name := range debris {
			if arena.IsHeld(name) {
				panic(fmt.Sprintf("E18 %s n=%d round %d: debris name %d still held after 2 sweeps",
					b.Name, n, round, name))
			}
			owner[name] = 0
		}
		// No lost name: every survivor still holds everything it acquired.
		for _, w := range workers {
			if w.mode != e18Survive {
				continue
			}
			for _, name := range w.names {
				if !arena.IsHeld(name) || owner[name] != w.p.ID() {
					panic(fmt.Sprintf("E18 %s n=%d round %d: survivor %d lost name %d",
						b.Name, n, round, w.p.ID(), name))
				}
			}
			arena.ReleaseN(w.p, w.names)
			for _, name := range w.names {
				owner[name] = 0
			}
		}
		if held := arena.Held(); held != 0 {
			panic(fmt.Sprintf("E18 %s n=%d round %d: %d names held after drain", b.Name, n, round, held))
		}
		// Stability: a third sweep over the drained arena must be pure scan.
		res[2] = sw.Sweep(reaper)
		if res[2].Adopted+res[2].Reclaimed+res[2].Resumed != 0 {
			panic(fmt.Sprintf("E18 %s n=%d round %d: post-drain sweep not idle: %+v",
				b.Name, n, round, res[2]))
		}
		// Exact accounting: adoptions match the injected orphan shapes, and
		// reclaims + resumes match the debris names, nothing more or less.
		adopted := res[0].Adopted + res[1].Adopted
		recovered := res[0].Reclaimed + res[0].Resumed + res[1].Reclaimed + res[1].Resumed
		if recovered != len(debris) {
			panic(fmt.Sprintf("E18 %s n=%d round %d: recovered %d of %d debris names",
				b.Name, n, round, recovered, len(debris)))
		}
		c.adopted += adopted
		c.reclaimed += res[0].Reclaimed + res[1].Reclaimed
		c.resumed += res[0].Resumed + res[1].Resumed
	}
	// Pool whole: the full capacity — minus documented τ device-bit leaks —
	// is grantable after all the injected carnage.
	p := shm.NewProc(1<<21, prng.NewStream(seed, 1<<21), nil, 0)
	want := arena.Capacity() - leakedTrial
	names := arena.AcquireN(p, want, make([]int, 0, want))
	if len(names) != want {
		panic(fmt.Sprintf("E18 %s n=%d: pool not whole: %d of %d grantable (leaked %d)",
			b.Name, n, len(names), want, leakedTrial))
	}
	arena.ReleaseN(p, names)
	c.leaked += leakedTrial
}

// e18Crash arms a one-shot crash hook for the worker at the given point on
// every lease domain, runs op expecting it to unwind with shm.LeaseCrash,
// and returns the name the hook fired on.
func e18Crash(a longlived.Recoverable, w *e18Worker, point shm.CrashPoint, op func()) int {
	fired := -1
	armed := true
	for _, d := range a.LeaseDomains() {
		base := d.Base
		d.Stamps.SetCrashHook(func(p *shm.Proc, pt shm.CrashPoint, name int) bool {
			if armed && pt == point && p.ID() == w.p.ID() {
				armed = false
				fired = base + name
				return true
			}
			return false
		})
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(shm.LeaseCrash); !ok {
					panic(r)
				}
			}
		}()
		op()
	}()
	for _, d := range a.LeaseDomains() {
		d.Stamps.SetCrashHook(nil)
	}
	if fired < 0 {
		panic(fmt.Sprintf("E18: crash hook at point %d never fired for worker %d", point, w.p.ID()))
	}
	return fired
}

// e18Domain resolves the lease domain covering a global arena name,
// returning the domain and the domain-local index.
func e18Domain(a longlived.Recoverable, name int) (longlived.LeaseDomain, int) {
	for _, d := range a.LeaseDomains() {
		if name >= d.Base && name < d.Base+d.Stamps.Size() {
			return d, name - d.Base
		}
	}
	panic(fmt.Sprintf("E18: name %d outside every lease domain", name))
}
