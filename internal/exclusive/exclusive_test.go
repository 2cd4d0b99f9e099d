package exclusive

import (
	"sync"
	"sync/atomic"
	"testing"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/sched"
	"shmrename/internal/shm"
)

func nativeProc(id int) *shm.Proc {
	return shm.NewProc(id, prng.NewStream(99, id), nil, 1<<22)
}

// TestFillDrainRefill exercises the single-proc contract: capacity
// distinct in-bound names, exact Held accounting, full drain, reuse.
func TestFillDrainRefill(t *testing.T) {
	const capacity = 100
	a := New(capacity, Config{MaxPasses: 4, Label: "t-excl"})
	p := nativeProc(0)
	if a.NameBound() != capacity {
		t.Fatalf("name bound %d, want %d", a.NameBound(), capacity)
	}
	seen := make(map[int]bool)
	for i := 0; i < capacity; i++ {
		n := a.Acquire(p)
		if n < 0 || n >= capacity {
			t.Fatalf("acquire %d: name %d outside [0,%d)", i, n, capacity)
		}
		if seen[n] {
			t.Fatalf("acquire %d: name %d issued twice", i, n)
		}
		seen[n] = true
	}
	if n := a.Acquire(p); n != -1 {
		t.Fatalf("acquire past capacity returned %d, want -1", n)
	}
	if h := a.Held(); h != capacity {
		t.Fatalf("held %d, want %d", h, capacity)
	}
	for n := range seen {
		if !a.IsHeld(n) {
			t.Fatalf("name %d not held", n)
		}
		a.Touch(p, n)
		a.Release(p, n)
		if a.IsHeld(n) {
			t.Fatalf("name %d held after release", n)
		}
	}
	if h := a.Held(); h != 0 {
		t.Fatalf("held %d after drain, want 0", h)
	}
	if n := a.Acquire(p); n < 0 {
		t.Fatal("reacquire after drain failed")
	}
}

// TestLowestNamesFirst checks the adaptivity flavor of the freelist
// ordering: a fresh arena selects 0,1,2,... in order.
func TestLowestNamesFirst(t *testing.T) {
	a := New(16, Config{MaxPasses: 1, Label: "t-excl-low"})
	p := nativeProc(0)
	for want := 0; want < 16; want++ {
		if got := a.Acquire(p); got != want {
			t.Fatalf("acquire %d: got name %d", want, got)
		}
	}
}

// TestBatchConservation drives AcquireN/ReleaseN round trips and checks
// exact conservation of the name pool.
func TestBatchConservation(t *testing.T) {
	const capacity = 64
	a := New(capacity, Config{MaxPasses: 4, Label: "t-excl-batch"})
	p := nativeProc(0)
	got := a.AcquireN(p, 40, nil)
	if len(got) != 40 {
		t.Fatalf("batch acquired %d, want 40", len(got))
	}
	// Only 24 remain; an oversized batch stops at the freelist bottom.
	rest := a.AcquireN(p, 40, nil)
	if len(rest) != 24 {
		t.Fatalf("second batch acquired %d, want 24", len(rest))
	}
	seen := make(map[int]bool)
	for _, n := range append(append([]int{}, got...), rest...) {
		if seen[n] {
			t.Fatalf("name %d issued twice across batches", n)
		}
		seen[n] = true
	}
	a.ReleaseN(p, got)
	if h := a.Held(); h != 24 {
		t.Fatalf("held %d after batch release, want 24", h)
	}
	a.ReleaseN(p, rest)
	if h := a.Held(); h != 0 {
		t.Fatalf("held %d after full release, want 0", h)
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	a := New(8, Config{Label: "t-excl-panic"})
	defer func() {
		if recover() == nil {
			t.Error("release of unheld name did not panic")
		}
	}()
	a.Release(nativeProc(0), 3)
}

// TestSimulatedChurnDeterministic runs the simulated adversary churn twice
// at the same seed and requires identical monitor fingerprints — the
// property behind the backend's Deterministic capability flag.
func TestSimulatedChurnDeterministic(t *testing.T) {
	type fingerprint struct {
		acquires, maxActive, maxName, steps int64
	}
	run := func() fingerprint {
		a := New(64, Config{Label: "t-excl-sim"})
		mon := longlived.NewMonitor(a.NameBound())
		res := sched.Run(sched.Config{
			N:    64,
			Seed: 11,
			Fast: sched.FastRandom,
			Body: longlived.ChurnBody(a, mon, longlived.ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 6}),
		})
		if err := mon.Err(); err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Status == sched.Limited {
				t.Fatalf("proc %d exceeded its step budget", r.PID)
			}
		}
		if h := a.Held(); h != 0 {
			t.Fatalf("%d names held after drain", h)
		}
		return fingerprint{mon.Acquires(), mon.MaxActive(), mon.MaxName(), mon.AcquireSteps()}
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("fingerprints diverge: %+v vs %+v", first, second)
	}
	if first.maxName >= 64 {
		t.Fatalf("max name %d breaches the capacity-tight bound", first.maxName)
	}
}

// TestNativeStormNoFalseFull is the no-false-full law at its sharpest: one
// pass per acquire and a tiny spin budget make back-outs frequent, yet with
// at most goroutines < capacity names held no acquire may report the arena
// full — a back-out is contention, and retries.
func TestNativeStormNoFalseFull(t *testing.T) {
	const (
		capacity   = 96
		goroutines = 24
		cycles     = 200
	)
	a := New(capacity, Config{MaxPasses: 1, SpinBudget: 2, Label: "t-excl-nofull"})
	var full atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := nativeProc(id)
			for c := 0; c < cycles; c++ {
				n := a.Acquire(p)
				if n < 0 {
					full.Add(1)
					continue
				}
				a.Release(p, n)
			}
		}(g)
	}
	wg.Wait()
	if f := full.Load(); f != 0 {
		t.Fatalf("%d of %d acquires reported the arena full with at most %d of %d names held",
			f, goroutines*cycles, goroutines, capacity)
	}
}

// TestNativeStormUnique hammers the arena from real goroutines (run under
// -race in CI) and checks that the monitor never observes a duplicate
// grant — the mutual-exclusion guarantee of the register tournament.
func TestNativeStormUnique(t *testing.T) {
	const (
		capacity   = 96
		goroutines = 24
		cycles     = 200
	)
	a := New(capacity, Config{Label: "t-excl-storm"})
	mon := longlived.NewMonitor(a.NameBound())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := nativeProc(id)
			for c := 0; c < cycles; c++ {
				n := a.Acquire(p)
				if n < 0 {
					continue // transient back-out under contention
				}
				mon.NoteAcquire(id, n, 1)
				a.Touch(p, n)
				mon.NoteRelease(id, n)
				a.Release(p, n)
			}
		}(g)
	}
	wg.Wait()
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if h := a.Held(); h != 0 {
		t.Fatalf("%d names held after storm", h)
	}
	if mon.Acquires() == 0 {
		t.Fatal("storm made no progress")
	}
}
