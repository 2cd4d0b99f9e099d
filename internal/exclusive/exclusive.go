// Package exclusive implements long-lived renaming as asynchronous
// exclusive selection from plain read/write registers — no hardware
// test-and-set, compare-and-swap, or fetch-and-add is ever performed on
// the shared state. It is the registry's demonstration that a backend
// built on a completely different primitive base drops into every
// experiment and conformance law unchanged.
//
// # Construction
//
// The setting is that of Chlebus and Kowalski, "Asynchronous Exclusive
// Selection" (arXiv:1512.09314): asynchronous processes must select
// pairwise-distinct items from a shared collection, communicating only
// through read/write registers. Their algorithms achieve strong progress
// bounds with intricate collision-resolution machinery; this package is
// the conservative tournament baseline in exactly the sense that
// internal/tas is the conservative baseline for software test-and-set —
// safety is deterministic and unconditional, the per-operation cost is a
// Θ(log P) register climb, and the measured experiments report the honest
// (larger) constant.
//
// Selection is serialized through one arena-wide tournament of
// Peterson-style two-process matches (flags + turn registers; want/turn
// writes, spin reads — every shared access is a plain register operation
// charged to the proc). A process enters at the leaf indexed by its ID,
// climbs by winning matches, and at the root owns the selection lock. The
// critical section is O(1): free names live on a register-array freelist
// stack, so a selection pops the top name and writes the ownership
// register, and a release pushes the name back. Entering a match spins at
// most a bounded budget before backing out (clearing its own flag — always
// safe in Peterson's protocol), so an Acquire pass fails cleanly under
// contention instead of blocking, exactly the bounded-pass contract the
// other backends implement with MaxPasses.
//
// # Model requirements and crash behavior
//
// Tournament safety needs one process per leaf at a time: concurrently
// active procs must have distinct IDs modulo the leaf count (Config.Procs,
// default capacity). Every caller in this repository satisfies it — the
// simulator and native storms use dense IDs 0..n-1, and the public arena
// pools proc contexts so live IDs stay far below capacity.
//
// Crashes never violate exclusivity: a crashed process can at worst leave
// a match flag raised or a name unreturned, shrinking the usable space,
// never granting a name twice. Crash *liveness* (recovering a dead
// holder's names) is the lease layer's job, which this backend does not
// implement — register it with Caps.Leasable false and the conformance
// suite holds it to every remaining law.
package exclusive

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// Config parameterizes an exclusive-selection arena.
type Config struct {
	// Procs bounds the concurrently active distinct proc IDs: the
	// tournament has nextPow2(Procs) leaves and procs enter at ID modulo
	// that count, so two live procs whose IDs collide would break match
	// safety. Default: capacity.
	Procs int
	// MaxPasses bounds Acquire's lock-and-pop passes before reporting the
	// arena full; 0 means unlimited (simulated runs rely on the
	// scheduler's step budget instead).
	MaxPasses int
	// SpinBudget bounds the spin iterations per match before a contender
	// backs out and fails the pass. Default 128 — several uncontended
	// critical sections long.
	SpinBudget int
	// Label prefixes the operation-space labels. Default "exclusive".
	Label string
}

func (c *Config) fill(capacity int) {
	if c.Procs <= 0 {
		c.Procs = capacity
	}
	if c.SpinBudget <= 0 {
		c.SpinBudget = 128
	}
	if c.Label == "" {
		c.Label = "exclusive"
	}
}

// node is one Peterson-style two-process match of the tournament. All
// fields are plain registers: atomics only for well-defined memory
// ordering, never a read-modify-write.
type node struct {
	want [2]atomic.Int32
	turn atomic.Int32 // 1 + side of the last turn writer
}

// Arena is the exclusive-selection arena. It implements longlived.Arena
// (= registry.Arena); all methods are safe for concurrent use by distinct
// procs (subject to the package-level ID requirement).
type Arena struct {
	cfg    Config
	cap    int
	leaves int
	nodes  []node // heap layout: node k has children 2k+1, 2k+2
	// own[i] is name i's ownership register: 0 free, pid+1 held. Written
	// only inside the critical section (claims) and by the holder
	// (releases), read freely.
	own []atomic.Int32
	// free is the freelist stack of unclaimed names; top is its size. Both
	// are touched only inside the critical section, so plain registers
	// suffice for exclusion — atomics again only for ordering.
	free []atomic.Int32
	top  atomic.Int32
	held atomic.Int64
	// Interned operation spaces: lock for match registers, sel for the
	// freelist and ownership registers.
	lockSpace shm.SpaceID
	selSpace  shm.SpaceID
}

var _ registry.Arena = (*Arena)(nil)

// New builds an exclusive-selection arena guaranteeing capacity concurrent
// holders.
func New(capacity int, cfg Config) *Arena {
	if capacity < 1 {
		panic("exclusive: capacity must be >= 1")
	}
	cfg.fill(capacity)
	leaves := 1
	for leaves < cfg.Procs {
		leaves *= 2
	}
	a := &Arena{
		cfg:       cfg,
		cap:       capacity,
		leaves:    leaves,
		nodes:     make([]node, leaves-1),
		own:       make([]atomic.Int32, capacity),
		free:      make([]atomic.Int32, capacity),
		lockSpace: shm.InternSpace(cfg.Label + ":lock"),
		selSpace:  shm.InternSpace(cfg.Label + ":sel"),
	}
	// Stack initialized so the first pops select the lowest names: the
	// freelist preserves the adaptivity flavor (issued names track churn
	// history, NameBound is exactly capacity — the tightest possible).
	for i := 0; i < capacity; i++ {
		a.free[i].Store(int32(capacity - 1 - i))
	}
	a.top.Store(int32(capacity))
	return a
}

// step charges one register operation in the given space.
func step(p *shm.Proc, space shm.SpaceID, kind shm.OpKind, index int) {
	p.Step(shm.Op{Kind: kind, Space: space, Index: int32(index)})
}

// enter runs the match's entry protocol for side, spinning at most budget
// iterations. Backing out (clearing the own flag) is always safe: it can
// only unblock the opponent.
func (a *Arena) enter(p *shm.Proc, k int, side int32, budget int) bool {
	m := &a.nodes[k]
	other := 1 - side
	step(p, a.lockSpace, shm.OpTAS, k)
	m.want[side].Store(1)
	step(p, a.lockSpace, shm.OpTAS, k)
	m.turn.Store(1 + side)
	for i := 0; ; i++ {
		step(p, a.lockSpace, shm.OpRead, k)
		if m.want[other].Load() == 0 {
			return true
		}
		step(p, a.lockSpace, shm.OpRead, k)
		if m.turn.Load() == 1+other {
			return true
		}
		if i >= budget {
			step(p, a.lockSpace, shm.OpClear, k)
			m.want[side].Store(0)
			return false
		}
		// Yield between native spin rounds. With more goroutines than
		// processors the opponent (or the tournament winner above it) may
		// be descheduled; spinning on would burn whole time slices, and the
		// step budget with them, before it runs again. The yield takes no
		// process step.
		if p.Native() {
			runtime.Gosched()
		}
	}
}

// tryLock climbs the tournament from p's leaf. On a failed match it backs
// out of every level already won, in reverse, and reports false.
func (a *Arena) tryLock(p *shm.Proc) bool {
	if a.leaves == 1 {
		return true // at most one live proc by the ID requirement
	}
	k := a.leaves - 1 + p.ID()%a.leaves
	// won records the climbed path for the back-out; depth ≤ 32 levels
	// covers every representable leaf count.
	var won [32]int
	var sides [32]int32
	depth := 0
	for k > 0 {
		parent := (k - 1) / 2
		side := int32((k - 1) % 2)
		if !a.enter(p, parent, side, a.cfg.SpinBudget) {
			for d := depth - 1; d >= 0; d-- {
				step(p, a.lockSpace, shm.OpClear, won[d])
				a.nodes[won[d]].want[sides[d]].Store(0)
			}
			return false
		}
		won[depth], sides[depth] = parent, side
		depth++
		k = parent
	}
	return true
}

// lock climbs until it wins, for operations that must not fail (releases).
// Fair schedules guarantee termination: every holder's critical section is
// O(1) registers long.
func (a *Arena) lock(p *shm.Proc) {
	for !a.tryLock(p) {
	}
}

// unlock exits the tournament: clear this proc's flag on the path from the
// root back down to its leaf.
func (a *Arena) unlock(p *shm.Proc) {
	if a.leaves == 1 {
		return
	}
	// Rebuild the leaf-to-root path, then clear top-down.
	var ks [32]int
	var sides [32]int32
	depth := 0
	k := a.leaves - 1 + p.ID()%a.leaves
	for k > 0 {
		parent := (k - 1) / 2
		ks[depth] = parent
		sides[depth] = int32((k - 1) % 2)
		depth++
		k = parent
	}
	for d := depth - 1; d >= 0; d-- {
		step(p, a.lockSpace, shm.OpClear, ks[d])
		a.nodes[ks[d]].want[sides[d]].Store(0)
	}
}

// pop selects the top freelist name inside the critical section, or -1
// when the arena is full. Three register operations.
func (a *Arena) pop(p *shm.Proc) int {
	step(p, a.selSpace, shm.OpRead, a.cap) // read top (register index cap)
	t := a.top.Load()
	if t == 0 {
		return -1
	}
	step(p, a.selSpace, shm.OpRead, int(t-1))
	name := int(a.free[t-1].Load())
	step(p, a.selSpace, shm.OpTAS, a.cap)
	a.top.Store(t - 1)
	step(p, a.selSpace, shm.OpTAS, name)
	a.own[name].Store(int32(p.ID()) + 1)
	a.held.Add(1)
	return name
}

// Label implements longlived.Arena.
func (a *Arena) Label() string {
	return fmt.Sprintf("exclusive-selection(procs=%d)", a.leaves)
}

// Capacity implements longlived.Arena.
func (a *Arena) Capacity() int { return a.cap }

// NameBound implements longlived.Arena: exactly capacity — exclusive
// selection from a fixed collection is perfectly tight.
func (a *Arena) NameBound() int { return a.cap }

// Acquire implements longlived.Arena: win the selection lock, pop a free
// name. A pass fails when lock contention exhausts the spin budget or the
// freelist is empty; MaxPasses bounds the passes (0 = unlimited).
func (a *Arena) Acquire(p *shm.Proc) int {
	for pass := 0; a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses; pass++ {
		if !a.tryLock(p) {
			continue
		}
		name := a.pop(p)
		a.unlock(p)
		if name >= 0 {
			return name
		}
	}
	return -1
}

// AcquireN implements longlived.Arena: each pass pops as much of the
// remainder as the freelist holds under one lock acquisition.
func (a *Arena) AcquireN(p *shm.Proc, k int, out []int) []int {
	for pass := 0; k > 0 && (a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses); pass++ {
		if !a.tryLock(p) {
			continue
		}
		for k > 0 {
			name := a.pop(p)
			if name < 0 {
				break
			}
			out = append(out, name)
			k--
		}
		a.unlock(p)
	}
	return out
}

// Release implements longlived.Arena: clear the ownership register, then
// push the name back under the lock. Releases must not fail, so the lock
// climb retries past spin-budget back-outs.
func (a *Arena) Release(p *shm.Proc, name int) {
	if name < 0 || name >= a.cap {
		panic(fmt.Sprintf("exclusive: release of name %d outside [0, %d)", name, a.cap))
	}
	if a.own[name].Load() == 0 {
		panic(fmt.Sprintf("exclusive: release of unheld name %d", name))
	}
	a.lock(p)
	step(p, a.selSpace, shm.OpClear, name)
	a.own[name].Store(0)
	step(p, a.selSpace, shm.OpRead, a.cap)
	t := a.top.Load()
	step(p, a.selSpace, shm.OpTAS, int(t))
	a.free[t].Store(int32(name))
	step(p, a.selSpace, shm.OpTAS, a.cap)
	a.top.Store(t + 1)
	a.held.Add(-1)
	a.unlock(p)
}

// ReleaseN implements longlived.Arena: the whole batch returns under one
// lock acquisition.
func (a *Arena) ReleaseN(p *shm.Proc, names []int) {
	if len(names) == 0 {
		return
	}
	for _, name := range names {
		if name < 0 || name >= a.cap {
			panic(fmt.Sprintf("exclusive: release of name %d outside [0, %d)", name, a.cap))
		}
		if a.own[name].Load() == 0 {
			panic(fmt.Sprintf("exclusive: release of unheld name %d", name))
		}
	}
	a.lock(p)
	for _, name := range names {
		step(p, a.selSpace, shm.OpClear, name)
		a.own[name].Store(0)
		step(p, a.selSpace, shm.OpRead, a.cap)
		t := a.top.Load()
		step(p, a.selSpace, shm.OpTAS, int(t))
		a.free[t].Store(int32(name))
		step(p, a.selSpace, shm.OpTAS, a.cap)
		a.top.Store(t + 1)
		a.held.Add(-1)
	}
	a.unlock(p)
}

// Touch implements longlived.Arena: one read of the name's ownership
// register.
func (a *Arena) Touch(p *shm.Proc, name int) {
	step(p, a.selSpace, shm.OpRead, name)
	_ = a.own[name].Load()
}

// IsHeld implements longlived.Arena.
func (a *Arena) IsHeld(name int) bool {
	return name >= 0 && name < a.cap && a.own[name].Load() != 0
}

// Held implements longlived.Arena.
func (a *Arena) Held() int { return int(a.held.Load()) }

// ownProbe exposes the ownership registers to adaptive adversaries.
type ownProbe struct{ a *Arena }

// Probe implements shm.Probeable.
func (o ownProbe) Probe(i int) bool { return o.a.own[i].Load() != 0 }

// Probeables implements longlived.Arena.
func (a *Arena) Probeables() map[string]shm.Probeable {
	return map[string]shm.Probeable{a.cfg.Label + ":sel": ownProbe{a}}
}

// Clock implements longlived.Arena: nothing is externally clocked.
func (a *Arena) Clock() func() { return nil }
