// Package longlived implements long-lived renaming: arenas in which names
// are acquired, released, and reacquired indefinitely under churn.
//
// The paper's algorithms are one-shot — every process claims one name and
// keeps it forever. A production system serving sustained traffic needs the
// long-lived variant of the problem (Alistarh et al., "The LevelArray",
// arXiv:1405.5461): at any instant at most k clients hold names, clients
// arrive and depart continuously, and the arena must keep handing out names
// that are unique among the *current* holders while keeping the largest
// issued name close to the instantaneous occupancy.
//
// Two backends share the Arena interface:
//
//   - LevelArena: a LevelArray-style hierarchy of geometrically growing
//     word-packed TAS bitmaps (shm.NameSpace). Acquire probes a few random
//     slots per level, falling through to larger levels, with a
//     deterministic scan of the capacity-sized backstop level as the safety
//     net; Release clears the slot's bit. Small levels carry the low names,
//     so the maximum issued name tracks the occupancy.
//   - TauArena: the long-lived adaptation of the paper's §III tight
//     algorithm. Acquire wins a TAS bit of a randomly probed τ-register
//     counting device and then a name from the device's block; Release
//     returns the name and then the device bit (taureg.Device.ReleaseBit).
//     The threshold contract — at most τ confirmed bits per device — keeps
//     block occupancy at most τ, so a confirmed winner always finds a free
//     name in its block.
//
// Both backends speak the shm kernel: every Acquire/Release/Touch is a
// sequence of Proc.Step-counted shared-memory operations (releases use the
// shm.OpClear kind), so the adversarial simulator (internal/sched) covers
// churn schedules exactly as it covers one-shot executions, and native
// goroutines run the same code on sync/atomic.
//
// Liveness under the adversary: an Acquire pass that fails end to end
// implies other clients claimed (or still hold) slots; with at most
// capacity-1 concurrent holders the backstop always has a free slot, so
// only an adversary that keeps winning races against the scanner can
// prolong an Acquire. MaxPasses converts that unbounded wait into a
// detectable "arena full" result for native callers.
package longlived

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// Arena is a long-lived renaming arena. All methods taking a *shm.Proc
// perform step-counted shared-memory operations and are safe for concurrent
// use by distinct procs.
//
// The interface definition lives in internal/registry (the backend
// registry, a leaf package every implementation can import to
// self-register); this alias keeps longlived.Arena the canonical spelling
// throughout the arena stack.
type Arena = registry.Arena

// Monitor observes a churn run: it tracks occupancy, the largest issued
// name, per-acquire step costs, and — the core long-lived safety property —
// that no two live holders ever share a name. Monitor methods are called by
// the churn body around arena operations; they cost no process steps.
type Monitor struct {
	owner     []atomic.Int32 // name -> holder pid+1, 0 when free
	active    atomic.Int64
	maxActive atomic.Int64
	maxName   atomic.Int64
	acquires  atomic.Int64
	acqSteps  atomic.Int64
	violation atomic.Pointer[string]
}

// NewMonitor returns a monitor for arenas issuing names below nameBound.
func NewMonitor(nameBound int) *Monitor {
	return &Monitor{owner: make([]atomic.Int32, nameBound)}
}

// NoteAcquire records that pid acquired name after steps shared-memory
// accesses. It flags a violation if another live holder already holds it.
func (m *Monitor) NoteAcquire(pid, name int, steps int64) {
	if !m.owner[name].CompareAndSwap(0, int32(pid)+1) {
		m.fail(fmt.Sprintf("name %d acquired by %d while held by %d",
			name, pid, m.owner[name].Load()-1))
		return
	}
	m.acquires.Add(1)
	m.acqSteps.Add(steps)
	a := m.active.Add(1)
	maxUpdate(&m.maxActive, a)
	maxUpdate(&m.maxName, int64(name))
}

// NoteAcquireBatch records that pid acquired the batch of names after steps
// shared-memory accesses in total. Holder-uniqueness is checked per name;
// the step cost is accounted once for the whole batch, so StepsPerAcquire
// reflects the amortized per-name cost batch acquires are built to lower.
func (m *Monitor) NoteAcquireBatch(pid int, names []int, steps int64) {
	for _, name := range names {
		if !m.owner[name].CompareAndSwap(0, int32(pid)+1) {
			m.fail(fmt.Sprintf("name %d acquired by %d while held by %d",
				name, pid, m.owner[name].Load()-1))
			return
		}
		m.acquires.Add(1)
		a := m.active.Add(1)
		maxUpdate(&m.maxActive, a)
		maxUpdate(&m.maxName, int64(name))
	}
	m.acqSteps.Add(steps)
}

// NoteReleaseBatch records that pid is about to release the batch.
func (m *Monitor) NoteReleaseBatch(pid int, names []int) {
	for _, name := range names {
		m.NoteRelease(pid, name)
	}
}

// NoteRelease records that pid is about to release name. It flags a
// violation if pid is not the recorded holder.
func (m *Monitor) NoteRelease(pid, name int) {
	if !m.owner[name].CompareAndSwap(int32(pid)+1, 0) {
		m.fail(fmt.Sprintf("name %d released by %d but held by %d",
			name, pid, m.owner[name].Load()-1))
		return
	}
	m.active.Add(-1)
}

func (m *Monitor) fail(msg string) {
	m.violation.CompareAndSwap(nil, &msg)
}

// Err returns an error describing the first holder-uniqueness violation
// observed, or nil.
func (m *Monitor) Err() error {
	if p := m.violation.Load(); p != nil {
		return fmt.Errorf("longlived: %s", *p)
	}
	return nil
}

// MaxActive returns the peak number of simultaneous holders observed.
func (m *Monitor) MaxActive() int64 { return m.maxActive.Load() }

// MaxName returns the largest name observed acquired, or -1 if none.
func (m *Monitor) MaxName() int64 {
	if m.acquires.Load() == 0 {
		return -1
	}
	return m.maxName.Load()
}

// Acquires returns the total number of successful acquires observed.
func (m *Monitor) Acquires() int64 { return m.acquires.Load() }

// AcquireSteps returns the total shared-memory steps spent inside
// successful acquires (exact, for golden determinism tests).
func (m *Monitor) AcquireSteps() int64 { return m.acqSteps.Load() }

// StepsPerAcquire returns the mean shared-memory steps per acquire.
func (m *Monitor) StepsPerAcquire() float64 {
	n := m.acquires.Load()
	if n == 0 {
		return 0
	}
	return float64(m.acqSteps.Load()) / float64(n)
}

func maxUpdate(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ChurnConfig parameterizes a churn workload body.
type ChurnConfig struct {
	// Cycles is the number of acquire/hold/release rounds per worker.
	Cycles int
	// HoldMin/HoldMax bound the number of Touch steps a worker performs
	// while holding a name; the actual count is drawn per cycle from the
	// worker's seeded randomness, which models seeded arrival/departure
	// churn: staggered hold times interleave releases with acquires.
	HoldMin, HoldMax int
	// Yield makes the worker yield the processor (runtime.Gosched) while
	// holding its name, so that in native runs other goroutines proceed
	// while the name is held and the instantaneous occupancy approaches
	// the worker count even on few cores. Simulated runs are unaffected
	// (scheduling there is decided by the gate, not the Go runtime).
	// E16 and the native scalability benchmarks set it; the canonical
	// simulated workload (DefaultChurn) leaves it off.
	Yield bool
}

// DefaultChurn is the canonical churn workload. The E15 harness
// experiment, the BENCH_2.json trajectory, and the Go benchmarks all
// measure exactly this configuration — tune it here, nowhere else, or the
// three surfaces silently diverge.
var DefaultChurn = ChurnConfig{Cycles: 4, HoldMin: 0, HoldMax: 8}

// BatchChurnBody returns a churn body that cycles whole batches: AcquireN
// of batch names, a seeded-random number of holding Touch steps, then
// ReleaseN of the batch. It is the workload of experiment E17 and the
// BENCH_4.json sweep: per-name step costs fall as the batch grows because
// word-granular backends serve up to 64 names per shared-memory access. A
// worker that cannot complete its batch (arena full) releases the partial
// batch and stops.
func BatchChurnBody(a Arena, mon *Monitor, cfg ChurnConfig, batch int) func(p *shm.Proc) int {
	return func(p *shm.Proc) int {
		r := p.Rand()
		buf := make([]int, 0, batch)
		for c := 0; c < cfg.Cycles; c++ {
			before := p.Steps()
			names := a.AcquireN(p, batch, buf[:0])
			if len(names) < batch {
				a.ReleaseN(p, names)
				return -1
			}
			mon.NoteAcquireBatch(p.ID(), names, p.Steps()-before)
			hold := cfg.HoldMin
			if cfg.HoldMax > cfg.HoldMin {
				hold += r.Intn(cfg.HoldMax - cfg.HoldMin + 1)
			}
			if cfg.Yield {
				runtime.Gosched()
			}
			for h := 0; h < hold; h++ {
				a.Touch(p, names[h%len(names)])
			}
			mon.NoteReleaseBatch(p.ID(), names)
			a.ReleaseN(p, names)
		}
		return -1
	}
}

// ChurnBody returns a process body (compatible with sched.Body and
// sched.RunNative) that churns the arena: Cycles rounds of acquire, a
// seeded-random number of holding Touch steps, then release. The body
// reports to mon around every transition and returns -1 (a churn worker
// terminates holding nothing). A worker that observes the arena full (only
// possible when more than Capacity workers churn) stops early.
func ChurnBody(a Arena, mon *Monitor, cfg ChurnConfig) func(p *shm.Proc) int {
	return func(p *shm.Proc) int {
		r := p.Rand()
		for c := 0; c < cfg.Cycles; c++ {
			before := p.Steps()
			name := a.Acquire(p)
			if name < 0 {
				return -1
			}
			mon.NoteAcquire(p.ID(), name, p.Steps()-before)
			hold := cfg.HoldMin
			if cfg.HoldMax > cfg.HoldMin {
				hold += r.Intn(cfg.HoldMax - cfg.HoldMin + 1)
			}
			if cfg.Yield {
				runtime.Gosched()
			}
			for h := 0; h < hold; h++ {
				a.Touch(p, name)
			}
			mon.NoteRelease(p.ID(), name)
			a.Release(p, name)
		}
		return -1
	}
}
