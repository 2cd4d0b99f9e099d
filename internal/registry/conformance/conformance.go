// Package conformance is the cross-backend law suite of the arena
// registry: Suite runs every arena contract the repository relies on —
// uniqueness under storms, acquire/release/batch semantics, public
// error-sentinel behavior, determinism fingerprints, adversary-churn
// invariants, and lease/recovery composition — against one registered
// backend, with each law gated by the backend's capability flags. A
// backend that registers with honest flags gets exactly the laws it must
// satisfy and no others; registering a new backend in
// internal/registry/all is all it takes to put it under the full suite.
package conformance

import (
	"errors"
	"io"
	"testing"

	"shmrename"
	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/recovery"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
	"shmrename/internal/shm"
)

// suiteCapacity is the arena capacity the in-process laws use: large
// enough for word-granular geometry (more than one 64-name bitmap word)
// and multi-shard striping, small enough that every law is fast.
const suiteCapacity = 96

// nativeProc returns an ungated proc for direct native arena use.
func nativeProc(id int) *shm.Proc {
	return shm.NewProc(id, prng.NewStream(7, id), nil, 1<<22)
}

// build constructs one instance of the backend and registers its cleanup
// (external backends hold OS resources behind io.Closer).
func build(t *testing.T, b registry.Backend, cfg registry.Config) registry.Arena {
	t.Helper()
	a := b.New(cfg)
	if c, ok := a.(io.Closer); ok {
		t.Cleanup(func() { c.Close() })
	}
	return a
}

// flush returns parked names to the pool on caching backends, so drain
// assertions account for every claim.
func flush(a registry.Arena, p *shm.Proc) {
	if f, ok := a.(registry.Flusher); ok {
		f.Flush(p)
	}
}

// cached reports claimed-but-parked names on caching backends, 0 elsewhere.
func cached(a registry.Arena) int {
	if c, ok := a.(interface{ Cached() int }); ok {
		return c.Cached()
	}
	return 0
}

// Suite runs every applicable conformance law against the backend as
// subtests. Laws whose capability the backend does not claim are skipped
// structurally (no subtest), so `go test` output lists exactly the
// contracts each backend is held to.
func Suite(t *testing.T, b registry.Backend) {
	t.Run("fill-unique", func(t *testing.T) { lawFillUnique(t, b) })
	t.Run("recycle", func(t *testing.T) { lawRecycle(t, b) })
	if b.Caps.Batch {
		t.Run("batch", func(t *testing.T) { lawBatch(t, b) })
	}
	t.Run("storm", func(t *testing.T) { lawStorm(t, b) })
	if b.Caps.Deterministic && !b.Caps.External {
		t.Run("adversary-churn", func(t *testing.T) { lawAdversaryChurn(t, b) })
		t.Run("fingerprint", func(t *testing.T) { lawFingerprint(t, b) })
	}
	if b.Caps.Leasable {
		t.Run("lease-recovery", func(t *testing.T) { lawLeaseRecovery(t, b) })
	}
	if b.Caps.Elastic {
		t.Run("elastic-resize", func(t *testing.T) { lawElastic(t, b) })
	}
	if b.Caps.SelfHealing {
		t.Run("self-healing", func(t *testing.T) { lawSelfHealing(t, b) })
	}
	t.Run("sentinels", func(t *testing.T) { lawSentinels(t, b) })
}

// lawFillUnique: a single proc drains the arena — at least Capacity
// acquires succeed before the arena reports full, every granted name is
// unique and inside [0, NameBound), and the held count tracks exactly.
func lawFillUnique(t *testing.T, b registry.Backend) {
	a := build(t, b, registry.Config{Capacity: suiteCapacity, MaxPasses: 8, Label: "conf-fill-" + b.Name})
	p := nativeProc(0)
	seen := make(map[int]bool)
	for {
		n := a.Acquire(p)
		if n == -1 {
			break
		}
		if n < 0 || n >= a.NameBound() {
			t.Fatalf("acquire %d: name %d outside [0, %d)", len(seen), n, a.NameBound())
		}
		if seen[n] {
			t.Fatalf("acquire %d: name %d granted twice", len(seen), n)
		}
		seen[n] = true
		if len(seen) > a.NameBound() {
			t.Fatal("more live names than the name bound")
		}
	}
	if len(seen) < suiteCapacity {
		t.Fatalf("only %d acquires before full; capacity %d is guaranteed", len(seen), suiteCapacity)
	}
	if h := a.Held(); h != len(seen) {
		t.Fatalf("held %d, want %d", h, len(seen))
	}
	for n := range seen {
		if !a.IsHeld(n) {
			t.Fatalf("granted name %d not reported held", n)
		}
	}
}

// lawRecycle: a full drain returns every name, and the drained arena
// serves a complete second generation (long-livedness).
func lawRecycle(t *testing.T, b registry.Backend) {
	a := build(t, b, registry.Config{Capacity: suiteCapacity, MaxPasses: 8, Label: "conf-recycle-" + b.Name})
	p := nativeProc(0)
	for gen := 0; gen < 2; gen++ {
		var names []int
		seen := make(map[int]bool)
		for len(names) < suiteCapacity {
			n := a.Acquire(p)
			if n < 0 {
				t.Fatalf("generation %d: full after %d acquires, capacity %d guaranteed", gen, len(names), suiteCapacity)
			}
			if seen[n] {
				t.Fatalf("generation %d: name %d granted twice", gen, n)
			}
			seen[n] = true
			names = append(names, n)
		}
		for _, n := range names {
			a.Touch(p, n)
			a.Release(p, n)
			if a.IsHeld(n) {
				t.Fatalf("generation %d: name %d held after release", gen, n)
			}
		}
		if h := a.Held(); h != 0 {
			t.Fatalf("generation %d: held %d after drain, want 0", gen, h)
		}
	}
	flush(a, p)
	if h, c := a.Held(), cached(a); h != 0 || c != 0 {
		t.Fatalf("after flush: held %d cached %d, want 0/0", h, c)
	}
}

// lawBatch: AcquireN serves a half-capacity batch completely on a fresh
// arena, batch names are unique, and ReleaseN restores pool wholeness.
func lawBatch(t *testing.T, b registry.Backend) {
	a := build(t, b, registry.Config{Capacity: suiteCapacity, MaxPasses: 8, Label: "conf-batch-" + b.Name})
	p := nativeProc(0)
	k := suiteCapacity / 2
	names := a.AcquireN(p, k, nil)
	if len(names) != k {
		t.Fatalf("fresh arena served %d of a batch of %d", len(names), k)
	}
	seen := make(map[int]bool)
	for _, n := range names {
		if n < 0 || n >= a.NameBound() {
			t.Fatalf("batch name %d outside [0, %d)", n, a.NameBound())
		}
		if seen[n] {
			t.Fatalf("batch name %d granted twice", n)
		}
		seen[n] = true
		if !a.IsHeld(n) {
			t.Fatalf("batch name %d not reported held", n)
		}
	}
	if h := a.Held(); h != k {
		t.Fatalf("held %d after batch, want %d", h, k)
	}
	// A second batch on top must stay disjoint from the first.
	more := a.AcquireN(p, k, nil)
	if len(more) != k {
		t.Fatalf("second batch served %d of %d", len(more), k)
	}
	for _, n := range more {
		if seen[n] {
			t.Fatalf("second batch regranted held name %d", n)
		}
	}
	a.ReleaseN(p, names)
	a.ReleaseN(p, more)
	flush(a, p)
	if h, c := a.Held(), cached(a); h != 0 || c != 0 {
		t.Fatalf("after batch drain: held %d cached %d, want 0/0", h, c)
	}
}

// lawStorm hammers the arena from real goroutines (CI runs this suite
// under -race) with a monitor asserting that no name is ever held twice.
// Non-caching in-process backends must also show that contention is not
// full: 24 workers hold at most 24 of the 96 names, so each acquire must
// succeed within one pass (MaxPasses 1; with unbounded passes a false full
// would hang the storm instead of failing it). Caching and external
// backends may report full while names sit parked in other slots, so they
// storm with 8 workers and unbounded passes.
func lawStorm(t *testing.T, b registry.Backend) {
	const cycles = 150
	noFalseFull := !b.Caps.Cached && !b.Caps.External
	workers, maxPasses := 8, 0
	if noFalseFull {
		workers, maxPasses = 24, 1
	}
	a := build(t, b, registry.Config{Capacity: suiteCapacity, MaxPasses: maxPasses, Label: "conf-storm-" + b.Name})
	mon := longlived.NewMonitor(a.NameBound())
	body := longlived.ChurnBody(a, mon, longlived.ChurnConfig{Cycles: cycles, HoldMin: 0, HoldMax: 4, Yield: true})
	sched.RunNative(workers, 23, body)
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if mon.Acquires() == 0 {
		t.Fatal("storm made no progress")
	}
	if want := int64(workers * cycles); noFalseFull && mon.Acquires() != want {
		t.Fatalf("storm completed %d of %d acquires — an acquire reported the arena full with at most %d of %d names held",
			mon.Acquires(), want, workers, suiteCapacity)
	}
	p := nativeProc(0)
	flush(a, p)
	if h, c := a.Held(), cached(a); h != 0 || c != 0 {
		t.Fatalf("after storm: held %d cached %d, want 0/0", h, c)
	}
}

// lawAdversaryChurn drives the arena through the deterministic simulated
// scheduler at full subscription (one proc per capacity slot): every
// worker must complete every cycle within the step budget, and the name
// pool must be whole afterwards.
func lawAdversaryChurn(t *testing.T, b registry.Backend) {
	const cycles = 3
	n := suiteCapacity
	a := build(t, b, registry.Config{Capacity: n, Label: "conf-churn-" + b.Name})
	mon := longlived.NewMonitor(a.NameBound())
	res := sched.Run(sched.Config{
		N:    n,
		Seed: 31,
		Fast: sched.FastRandom,
		Body: longlived.ChurnBody(a, mon, longlived.ChurnConfig{Cycles: cycles, HoldMin: 0, HoldMax: 6}),
	})
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Status == sched.Limited {
			t.Fatalf("proc %d exceeded the step budget", r.PID)
		}
	}
	if mon.Acquires() != int64(n*cycles) {
		t.Fatalf("churn completed %d of %d acquires", mon.Acquires(), n*cycles)
	}
	if mon.MaxActive() > int64(n) {
		t.Fatalf("peak occupancy %d exceeds the %d churning procs", mon.MaxActive(), n)
	}
	if mon.MaxName() >= int64(a.NameBound()) {
		t.Fatalf("max issued name %d breaches NameBound %d", mon.MaxName(), a.NameBound())
	}
	if h := a.Held(); h != 0 {
		t.Fatalf("%d names held after simulated drain", h)
	}
}

// lawFingerprint: deterministic backends replay bit-identically — two runs
// at the same seed produce the same grant aggregate, including exact step
// counts.
func lawFingerprint(t *testing.T, b registry.Backend) {
	type fingerprint struct {
		acquires, maxActive, maxName, steps int64
	}
	run := func(label string) fingerprint {
		a := build(t, b, registry.Config{Capacity: 64, Label: label})
		mon := longlived.NewMonitor(a.NameBound())
		sched.Run(sched.Config{
			N:    64,
			Seed: 47,
			Fast: sched.FastRandom,
			Body: longlived.ChurnBody(a, mon, longlived.ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 6}),
		})
		if err := mon.Err(); err != nil {
			t.Fatal(err)
		}
		return fingerprint{mon.Acquires(), mon.MaxActive(), mon.MaxName(), mon.AcquireSteps()}
	}
	// Identical labels: the fingerprint must not depend on anything but
	// (seed, schedule, backend shape).
	first := run("conf-fp-" + b.Name)
	second := run("conf-fp-" + b.Name)
	if first != second {
		t.Fatalf("replay diverged: %+v vs %+v — backend registered Deterministic but is not", first, second)
	}
}

// lawLeaseRecovery: on leasable backends, claims carry lease stamps; a
// heartbeating holder survives a sweep, a silent holder's names are
// reclaimed once stale, and the recovered pool serves a full fresh
// generation.
func lawLeaseRecovery(t *testing.T, b registry.Backend) {
	const (
		capacity = 32
		holder   = 7001
		ttl      = 2
	)
	ep := shm.NewCounterEpochs(1)
	a := build(t, b, registry.Config{
		Capacity:  capacity,
		MaxPasses: 8,
		Epochs:    ep,
		Holder:    holder,
		Alive:     func(uint64) bool { return false },
		Label:     "conf-lease-" + b.Name,
	})
	rec, ok := a.(longlived.Recoverable)
	if !ok {
		t.Fatalf("backend registered Leasable but %T does not implement longlived.Recoverable", a)
	}
	p := nativeProc(0)
	var names []int
	for i := 0; i < 5; i++ {
		n := a.Acquire(p)
		if n < 0 {
			t.Fatalf("acquire %d failed on an empty arena", i)
		}
		names = append(names, n)
	}
	sw := recovery.NewSweeper(rec, recovery.Config{
		TTL:    ttl,
		Epochs: ep,
		Alive:  func(uint64) bool { return false },
	})
	// A live holder heartbeats: its names must survive sweeps past TTL.
	for i := 0; i < 4; i++ {
		ep.Advance(ttl + 1)
		longlived.HeartbeatHolder(rec, p, holder, ep.Now())
		sw.Sweep(p)
	}
	for _, n := range names {
		if !a.IsHeld(n) && cached(a) == 0 {
			t.Fatalf("name %d reclaimed under an active heartbeat", n)
		}
	}
	// The holder goes silent (crash): sweeps reclaim everything — on
	// caching backends including the parked remainder of the block.
	for i := 0; i < 6; i++ {
		ep.Advance(ttl + 2)
		sw.Sweep(p)
	}
	for _, n := range names {
		if a.IsHeld(n) {
			t.Fatalf("name %d still held after the holder's lease lapsed", n)
		}
	}
	if h, c := a.Held(), cached(a); h != 0 || c != 0 {
		t.Fatalf("after recovery: held %d cached %d, want 0/0", h, c)
	}
	// Conservation: the recovered arena serves a complete generation.
	seen := make(map[int]bool)
	for i := 0; i < capacity; i++ {
		n := a.Acquire(p)
		if n < 0 {
			t.Fatalf("post-recovery acquire %d failed; recovery lost names", i)
		}
		if seen[n] {
			t.Fatalf("post-recovery name %d granted twice", n)
		}
		seen[n] = true
	}
}

// lawSentinels exercises the public shmrename surface: constructible
// backends must wrap ErrArenaFull, ErrNotHeld, and ErrClosed exactly as
// documented; external backends must be refused with an explanatory error
// (OpenArena is their surface) rather than misbehave.
func lawSentinels(t *testing.T, b registry.Backend) {
	cfg := shmrename.ArenaConfig{Capacity: 8, Backend: shmrename.ArenaBackend(b.Name)}
	na, err := shmrename.NewArena(cfg)
	if b.Caps.External {
		if err == nil {
			na.Close()
			t.Fatalf("NewArena accepted external backend %q, which must be refused", b.Name)
		}
		return
	}
	if err != nil {
		t.Fatalf("NewArena(%q): %v", b.Name, err)
	}
	var held []int
	for {
		n, err := na.Acquire()
		if err != nil {
			if !errors.Is(err, shmrename.ErrArenaFull) {
				t.Fatalf("full arena returned %v, want ErrArenaFull", err)
			}
			if n != -1 {
				t.Fatalf("failed Acquire returned name %d, want -1", n)
			}
			break
		}
		held = append(held, n)
		if len(held) > na.NameBound() {
			t.Fatal("more grants than the name bound")
		}
	}
	if len(held) < cfg.Capacity {
		t.Fatalf("only %d grants before ErrArenaFull, capacity %d guaranteed", len(held), cfg.Capacity)
	}
	for _, name := range []int{-1, na.NameBound()} {
		if err := na.Release(name); !errors.Is(err, shmrename.ErrNotHeld) {
			t.Fatalf("Release(%d) = %v, want ErrNotHeld", name, err)
		}
	}
	if err := na.Release(held[0]); err != nil {
		t.Fatalf("Release of held name: %v", err)
	}
	if err := na.Release(held[0]); !errors.Is(err, shmrename.ErrNotHeld) {
		t.Fatalf("double release = %v, want ErrNotHeld", err)
	}
	if err := na.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := na.Acquire(); !errors.Is(err, shmrename.ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
	if _, err := na.AcquireN(1); !errors.Is(err, shmrename.ErrClosed) {
		t.Fatalf("AcquireN after Close = %v, want ErrClosed", err)
	}
	if err := na.Release(held[1]); !errors.Is(err, shmrename.ErrClosed) {
		t.Fatalf("Release after Close = %v, want ErrClosed", err)
	}
	if err := na.ReleaseAll(held[1:]); !errors.Is(err, shmrename.ErrClosed) {
		t.Fatalf("ReleaseAll after Close = %v, want ErrClosed", err)
	}
	if hb := na.Heartbeat(); hb != 0 {
		t.Fatalf("Heartbeat after Close renewed %d leases, want 0", hb)
	}
	if sw := na.SweepStale(); sw != 0 {
		t.Fatalf("SweepStale after Close reclaimed %d names, want 0", sw)
	}
	if err := na.Close(); err != nil {
		t.Fatalf("second Close: %v (must be idempotent)", err)
	}
}
