package harness

import (
	"fmt"
	"io"

	"shmrename/internal/chaos"
	"shmrename/internal/integrity"
	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/prng"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// e21TTL is the staleness horizon the E21 scrubber runs with, in counter
// epochs. The trial clock never advances past it, so residual-stamp repair
// is exercised by the unit suite, not here: E21 isolates the corruption
// gates.
const e21TTL = 8

// e21MaxAhead flags stamps dated implausibly far in the future as corrupt.
const e21MaxAhead = 1 << 20

// e21Backends enumerates the registry for chaos injection: every backend
// that declares Caps.SelfHealing (its lease domains can seize bits, so the
// scrubber can contain what it cannot repair). On unix this includes the
// mmap-backed persist arena through its registry temp-file constructor.
func e21Backends() []registry.Backend {
	var out []registry.Backend
	for _, b := range registry.All() {
		if b.Caps.SelfHealing {
			out = append(out, b)
		}
	}
	return out
}

// expE21 is the chaos-injection experiment: seeded corruption of the
// shared claim and stamp words — garbage client stamps over free names,
// claim bits cleared under live holders, claim bits set with nothing
// behind them — on every self-healing backend, contained by the integrity
// scrubber. The gates, checked on every trial:
//
//   - containment: the first scrub pass leaves no violation standing
//     (irreparable damage is quarantined at word granularity), and the
//     next pass is idle — the quarantine is a fixed point, not a repair
//     the scrubber keeps re-doing;
//   - no lost name: uncorrupted holders keep every name they acquired
//     through the whole campaign;
//   - zero duplicate grants, ever: a post-containment drain grants only
//     names that were observably free, never a quarantined or held one,
//     and never the same name twice;
//   - accounting: the drain serves at least capacity minus the withdrawn
//     names (quarantined words plus adopted orphans awaiting recovery) —
//     corruption costs capacity, never exclusivity.
//
// The unix file table extends the same discipline to namespace files on
// disk: torn superblocks and truncations must be rejected at open, and
// bitmap/stamp page flips contained by a post-attach scrub.
func expE21() Experiment {
	return Experiment{
		ID:    "E21",
		Title: "Chaos injection: integrity scrub under seeded corruption",
		Claim: "seeded bitmap/stamp corruption on every self-healing backend: violations quarantined at word granularity, zero duplicate grants, final scrub pass idle",
		Run: func(cfg Config) []*metrics.Table {
			_, tabs := RunChaos(cfg)
			return tabs
		},
	}
}

// RunChaos runs the E21 matrix and returns its machine-readable accounting
// report alongside the rendered tables — the artifact behind
// cmd/renamebench -chaos and the CI chaos job.
func RunChaos(cfg Config) (*chaos.Report, []*metrics.Table) {
	rep := &chaos.Report{Seed: cfg.Seed, Trials: cfg.trials()}
	tabs := []*metrics.Table{e21Matrix(cfg, rep)}
	if ft := e21FileTable(cfg); ft != nil {
		tabs = append(tabs, ft)
	}
	return rep, tabs
}

// e21Matrix runs the in-process corruption matrix, appending one
// accounting cell per (backend, n) point to rep.
func e21Matrix(cfg Config, rep *chaos.Report) *metrics.Table {
	tab := metrics.NewTable("E21 chaos scrub matrix",
		"backend", "n", "garbage stamps", "cleared bits", "set bits",
		"repaired", "quarantined", "unrepaired", "drained", "floor")
	for _, b := range e21Backends() {
		// The sweep starts at 256 (four bitmap words on the flat arenas): a
		// word-granular quarantine needs words to spare, or every seeded
		// campaign degenerates to a fully withdrawn arena — safe, but a
		// trivial row.
		for _, n := range cfg.sweep([]int{256, 512}, []int{256, 512, 1024, 2048}) {
			cell := chaos.Cell{
				Backend:   b.Name,
				Capacity:  n,
				Injected:  map[string]int{},
				ScrubIdle: true,
			}
			for t := 0; t < cfg.trials(); t++ {
				e21Trial(&cell, b, n, cfg.Seed+uint64(t))
			}
			tab.AddRow(b.Name, n,
				cell.Injected[chaos.KindGarbageStamp.String()],
				cell.Injected[chaos.KindClearBit.String()],
				cell.Injected[chaos.KindSetBit.String()],
				cell.Repaired, cell.Quarantined, cell.Unrepaired,
				cell.Drained, cell.Floor)
			if rep != nil {
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	tab.Note = "every row passed: no violation left standing, no duplicate grant, uncorrupted holders intact, final scrub pass idle"
	return tab
}

// e21Trial runs one seeded campaign: acquire, corrupt, scrub, verify.
func e21Trial(cell *chaos.Cell, b registry.Backend, n int, seed uint64) {
	const perKind = 3
	ep := shm.NewCounterEpochs(1)
	a := b.New(registry.Config{Capacity: n, MaxPasses: 8, Epochs: ep, Label: "e21-" + b.Name})
	if c, ok := a.(io.Closer); ok {
		defer c.Close()
	}
	arena, ok := a.(longlived.Recoverable)
	if !ok {
		panic(fmt.Sprintf("E21 %s: registered SelfHealing but not longlived.Recoverable", b.Name))
	}
	icfg := integrity.Config{Epochs: ep, TTL: e21TTL, Quarantine: true, MaxEpochAhead: e21MaxAhead}
	if c, ok := a.(interface {
		Parked(int) bool
		PurgeParked(int) bool
	}); ok {
		icfg.Parked = c.Parked
		icfg.Purge = c.PurgeParked
	}
	s := integrity.NewScrubber(arena, icfg)
	in := chaos.NewInjector(arena, seed)
	maint := shm.NewProc(1<<20, prng.NewStream(seed, 1<<20), nil, 0)

	// Two client holders: one stays uncorrupted end to end (the no-lost-name
	// oracle), the other donates victims to the bit-clear injections. On
	// caching backends the parked block remainders are flushed back, so the
	// free-pool injections have idle state to hit.
	live := e21Holder(arena, seed, 1, n/8)
	sacrificial := e21Holder(arena, seed, 2, n/8)
	if f, ok := a.(registry.Flusher); ok {
		f.Flush(live.p)
		f.Flush(sacrificial.p)
	}

	// Seeded corruption: bit flips in the stamp page (garbage stamps over
	// free names), downward bitmap flips (held bits cleared under live
	// stamps), upward bitmap flips (orphan bits with nothing behind them).
	for j := 0; j < perKind; j++ {
		if inj, ok := in.GarbageStamp(ep.Now()); ok {
			cell.Injected[inj.Kind.String()]++
		}
		if len(sacrificial.names) > 0 {
			victim := sacrificial.names[0]
			sacrificial.names = sacrificial.names[1:]
			inj := in.ClearBit(sacrificial.p, victim)
			cell.Injected[inj.Kind.String()]++
		}
		if inj, ok := in.SetBit(maint); ok {
			cell.Injected[inj.Kind.String()]++
		}
	}

	// Containment: one pass repairs or quarantines everything, the next is
	// idle.
	first := s.Scrub(maint)
	if first.Unrepaired != 0 {
		panic(fmt.Sprintf("E21 %s n=%d: %d violations left standing", b.Name, n, first.Unrepaired))
	}
	second := s.Scrub(maint)
	if second.Repaired+second.Quarantined+second.Unrepaired != 0 {
		panic(fmt.Sprintf("E21 %s n=%d: scrub not a fixed point: %+v", b.Name, n, second))
	}
	// No lost name: both holders still own everything corruption did not
	// explicitly take from them.
	for _, w := range []*e21Client{live, sacrificial} {
		for _, name := range w.names {
			if !arena.IsHeld(name) {
				panic(fmt.Sprintf("E21 %s n=%d: scrub took held name %d from a live holder", b.Name, n, name))
			}
		}
	}
	// Drain the holders; freed names inside quarantined words must be
	// absorbed by the next pass, after which the scrub is idle again.
	arena.ReleaseN(live.p, live.names)
	arena.ReleaseN(sacrificial.p, sacrificial.names)
	if f, ok := a.(registry.Flusher); ok {
		f.Flush(live.p)
		f.Flush(sacrificial.p)
	}
	third := s.Scrub(maint)
	if third.Unrepaired != 0 {
		panic(fmt.Sprintf("E21 %s n=%d: post-release scrub left %d violations", b.Name, n, third.Unrepaired))
	}
	fourth := s.Scrub(maint)
	if fourth.Repaired+fourth.Quarantined+fourth.Unrepaired != 0 {
		panic(fmt.Sprintf("E21 %s n=%d: final scrub pass not idle: %+v", b.Name, n, fourth))
	}

	// Snapshot the withdrawn state, then drain: every grant must come from
	// the observably free pool — never a quarantined or held name, never a
	// name twice — and corruption costs at most the withdrawn names.
	quar, held := e21Withdrawn(arena)
	drainer := shm.NewProc(1<<21, prng.NewStream(seed, 1<<21), nil, 0)
	granted := map[int]bool{}
	for {
		name := arena.Acquire(drainer)
		if name < 0 {
			break
		}
		switch {
		case granted[name]:
			cell.DuplicateGrants++
			panic(fmt.Sprintf("E21 %s n=%d: name %d granted twice", b.Name, n, name))
		case quar[name]:
			panic(fmt.Sprintf("E21 %s n=%d: quarantined name %d granted", b.Name, n, name))
		case held[name]:
			panic(fmt.Sprintf("E21 %s n=%d: held name %d granted", b.Name, n, name))
		}
		granted[name] = true
	}
	floor := n - len(quar) - len(held)
	if floor < 0 {
		floor = 0
	}
	if len(granted) < floor {
		panic(fmt.Sprintf("E21 %s n=%d: drained %d names, floor %d (capacity %d minus %d quarantined, %d held)",
			b.Name, n, len(granted), floor, n, len(quar), len(held)))
	}
	cell.Repaired += first.Repaired + third.Repaired
	cell.Quarantined += first.Quarantined + third.Quarantined
	cell.Drained += len(granted)
	cell.Floor += floor
}

// e21Client is one client holder of a chaos campaign.
type e21Client struct {
	p     *shm.Proc
	names []int
}

// e21Holder acquires k names under a fresh proc, panicking below capacity.
func e21Holder(a longlived.Recoverable, seed uint64, id, k int) *e21Client {
	w := &e21Client{p: shm.NewProc(id, prng.NewStream(seed, id), nil, 0)}
	w.names = a.AcquireN(w.p, k, make([]int, 0, k))
	if len(w.names) != k {
		panic(fmt.Sprintf("E21 %s: holder %d acquired %d of %d below capacity", a.Label(), id, len(w.names), k))
	}
	return w
}

// e21Withdrawn snapshots the names currently out of circulation: the
// quarantine-stamped set and the still-held set (adopted orphans awaiting
// recovery, plus any quarantine-seized bits).
func e21Withdrawn(a longlived.Recoverable) (quar, held map[int]bool) {
	quar, held = map[int]bool{}, map[int]bool{}
	for _, d := range a.LeaseDomains() {
		for i := 0; i < d.Stamps.Size(); i++ {
			s := i
			if d.Stamps.PerWord() {
				s = i >> 6
			}
			if h, _ := shm.UnpackStamp(d.Stamps.Load(s)); h == shm.HolderQuarantine {
				quar[d.Base+i] = true
			} else if d.IsHeld(i) {
				held[d.Base+i] = true
			}
		}
	}
	return quar, held
}
