package longlived

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"shmrename/internal/sched"
	"shmrename/internal/shm"
)

// TestElasticGeometryMatchesFixed pins the tentpole's compatibility
// contract: the elastic ladder's *shape* — and therefore NameBound, the
// Monitor sizing, and the sharded frontend's equal-stride envelope — is
// identical to the fixed LevelArena's for the same capacity; only the
// resident prefix differs.
func TestElasticGeometryMatchesFixed(t *testing.T) {
	for _, capacity := range []int{1, 8, 64, 100, 1024, 4096} {
		fixed := NewLevel(capacity, LevelConfig{Label: "t-egeom-f"})
		el := NewElastic(capacity, ElasticConfig{Label: "t-egeom-e"})
		if el.NameBound() != fixed.NameBound() {
			t.Fatalf("capacity %d: elastic bound %d != fixed bound %d",
				capacity, el.NameBound(), fixed.NameBound())
		}
		if el.Capacity() != capacity {
			t.Fatalf("capacity %d: Capacity() = %d", capacity, el.Capacity())
		}
		act, max := el.Levels()
		if fixedLevels := fixed.Levels(); max != fixedLevels {
			t.Fatalf("capacity %d: max levels %d != fixed levels %d", capacity, max, fixedLevels)
		}
		// Default MinCapacity = Base: exactly one resident level at start.
		if act != 1 {
			t.Fatalf("capacity %d: %d resident levels at start, want 1", capacity, act)
		}
		if want := min(64, capacity); el.CapacityNow() != want {
			t.Fatalf("capacity %d: CapacityNow %d, want %d", capacity, el.CapacityNow(), want)
		}
	}
	// MinCapacity floors residency at the covering level prefix.
	el := NewElastic(1024, ElasticConfig{MinCapacity: 200, Label: "t-egeom-min"})
	if act, _ := el.Levels(); act != 3 { // 64+128 < 200 <= 64+128+256
		t.Fatalf("MinCapacity 200: %d resident levels, want 3", act)
	}
}

// TestElasticGrowFillShrink exercises the full lifecycle on both scan
// engines: grow-then-fill uniqueness up to the capacity guarantee, shrink
// refusing to reclaim held names, and drain-to-floor plus regrow once the
// holders leave.
func TestElasticGrowFillShrink(t *testing.T) {
	const capacity = 500
	for _, wordScan := range []bool{false, true} {
		a := NewElastic(capacity, ElasticConfig{WordScan: wordScan, MaxPasses: 4, Label: "t-elife"})
		t.Run(a.Label(), func(t *testing.T) {
			p := nativeProc(0)
			fill := func() []int {
				var names []int
				seen := make(map[int]bool)
				for {
					n := a.Acquire(p)
					if n < 0 {
						break
					}
					if n < 0 || n >= a.NameBound() {
						t.Fatalf("name %d outside [0,%d)", n, a.NameBound())
					}
					if seen[n] {
						t.Fatalf("name %d issued twice", n)
					}
					seen[n] = true
					names = append(names, n)
				}
				if len(names) < capacity {
					t.Fatalf("only %d acquires before full, capacity %d guaranteed", len(names), capacity)
				}
				return names
			}
			names := fill()
			if h := a.Held(); h != len(names) {
				t.Fatalf("held %d, want %d", h, len(names))
			}
			if a.CapacityNow() < capacity {
				t.Fatalf("CapacityNow %d < capacity %d after fill", a.CapacityNow(), capacity)
			}
			// Shrink never reclaims a held name: with everyone holding, the
			// drain stays pending and every name survives.
			if a.Shrink() {
				t.Fatal("Shrink retired a level while it had holders")
			}
			for _, n := range names {
				if !a.IsHeld(n) {
					t.Fatalf("name %d lost to a shrink attempt", n)
				}
			}
			// A failed-pass grow cancels the pending drain, so the full
			// capacity stays reachable even mid-drain.
			for _, n := range names {
				a.Release(p, n)
			}
			if h := a.Held(); h != 0 {
				t.Fatalf("held %d after full drain, want 0", h)
			}
			// Forced shrinks now walk the ladder back to the floor.
			for a.Shrink() {
			}
			if act, _ := a.Levels(); act != 1 {
				t.Fatalf("resident levels %d after drain-to-floor, want 1", act)
			}
			if a.CapacityNow() != 64 {
				t.Fatalf("CapacityNow %d after drain-to-floor, want 64", a.CapacityNow())
			}
			if a.PeakCapacity() < capacity {
				t.Fatalf("PeakCapacity %d < %d", a.PeakCapacity(), capacity)
			}
			// The retired levels regrow on demand: a second full fill issues
			// capacity unique names again.
			names = fill()
			for _, n := range names {
				a.Release(p, n)
			}
		})
	}
}

// TestElasticProportionalResidency is the memory-proportionality claim in
// unit form: steady churn at k ≪ capacity keeps the elastic arena's
// resident capacity and bytes a small fraction of the peak-provisioned
// fixed arena's — the BENCH_6 acceptance ratio (≤ 1/8 at k = capacity/64),
// asserted structurally rather than on wall-clock measurements.
func TestElasticProportionalResidency(t *testing.T) {
	const capacity = 4096
	const k = capacity / 64
	// The peak-provisioned baseline is a fixed ladder that has claimed in
	// every level, so all of its storage is resident: one word-scan batch
	// pass probes, and claims in, each level.
	fixed := NewLevel(capacity, LevelConfig{WordScan: true, MaxPasses: 1, Label: "t-eprop-f"})
	fixed.AcquireN(nativeProc(1), fixed.NameBound(), nil)
	for li, lvl := range fixed.levels {
		if lvl.CountClaimed() == 0 {
			t.Fatalf("fixed ladder never claimed in level %d", li)
		}
	}
	a := NewElastic(capacity, ElasticConfig{Label: "t-eprop-e"})
	p := nativeProc(0)
	for cycle := 0; cycle < 200; cycle++ {
		var names []int
		for i := 0; i < k; i++ {
			n := a.Acquire(p)
			if n < 0 {
				t.Fatalf("cycle %d: acquire %d failed", cycle, i)
			}
			names = append(names, n)
		}
		for _, n := range names {
			a.Release(p, n)
		}
	}
	if a.CapacityNow() > capacity/8 {
		t.Fatalf("CapacityNow %d after churn at k=%d, want <= %d", a.CapacityNow(), k, capacity/8)
	}
	if eb, fb := a.ResidentBytes(), fixed.ResidentBytes(); eb*8 > fb {
		t.Fatalf("elastic resident %d bytes > 1/8 of fixed %d", eb, fb)
	}
	// The occupancy trip alone (k=64 at GrowAt 0.75 over a 64+128 ladder)
	// never needed more than the bottom two levels.
	if a.PeakCapacity() > 448 {
		t.Fatalf("PeakCapacity %d for steady k=%d, want <= 448", a.PeakCapacity(), k)
	}
}

// TestElasticDeterministicReplay runs the simulated adversarial churn —
// heavy enough to cross grow and shrink transitions — twice with one seed
// and demands identical fingerprints including the resize counters: under
// the simulated gate, elastic transitions are part of the deterministic
// replay surface, which is what lets the backend register Deterministic.
func TestElasticDeterministicReplay(t *testing.T) {
	run := func() (fp struct {
		acquires, maxActive, maxName, steps int64
		grows, shrinks, cancels             int64
		bound                               int
	}) {
		a := NewElastic(256, ElasticConfig{ShrinkAfter: 8, MaxPasses: 0, Label: "t-edet"})
		mon := NewMonitor(a.NameBound())
		sched.Run(sched.Config{
			N:    192,
			Seed: 41,
			Fast: sched.FastRandom,
			Body: ChurnBody(a, mon, ChurnConfig{Cycles: 6, HoldMin: 0, HoldMax: 9}),
		})
		if err := mon.Err(); err != nil {
			t.Fatal(err)
		}
		if h := a.Held(); h != 0 {
			t.Fatalf("%d names held after drain", h)
		}
		fp.acquires, fp.maxActive, fp.maxName = mon.Acquires(), mon.MaxActive(), mon.MaxName()
		fp.steps = mon.AcquireSteps()
		fp.grows, fp.shrinks, fp.cancels = a.Resizes()
		fp.bound = a.NameBound()
		return fp
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("replay diverged:\n  first  %+v\n  second %+v", first, second)
	}
	if first.grows == 0 {
		t.Fatal("workload never grew the ladder; fingerprint covers no transition")
	}
}

// TestElasticResizeStormNative is the lock-free claim under the race
// detector: real goroutines churn while a dedicated antagonist forces
// grow/shrink transitions as fast as it can. Every acquire must succeed
// (MaxPasses 0 — resizes may slow an acquire but never wedge or starve
// it), names stay unique, and the arena drains clean.
func TestElasticResizeStormNative(t *testing.T) {
	const workers, cycles = 8, 300
	a := NewElastic(512, ElasticConfig{ShrinkAfter: 4, MaxPasses: 0, Label: "t-estorm"})
	mon := NewMonitor(a.NameBound())
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			a.Grow()
			a.Shrink()
			runtime.Gosched()
		}
	}()
	sched.RunNative(workers, 73, ChurnBody(a, mon, ChurnConfig{
		Cycles: cycles, HoldMin: 0, HoldMax: 6, Yield: true,
	}))
	stop.Store(true)
	wg.Wait()
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := mon.Acquires(), int64(workers*cycles); got != want {
		t.Fatalf("%d acquires completed, want %d (resizes must not starve acquires)", got, want)
	}
	if h := a.Held(); h != 0 {
		t.Fatalf("%d names held after storm", h)
	}
	// The storm ends with no pending drain wedged: forced shrinks walk back
	// to the floor.
	for a.Shrink() {
	}
	if act, _ := a.Levels(); act != 1 {
		t.Fatalf("resident levels %d after storm drain, want 1", act)
	}
}

// TestElasticLeaseReclaim covers the per-level stamp layer: a holder that
// stops heartbeating loses its names on every resident level to the sweep,
// the reclaim flows through the same occupancy accounting as a release
// (so the shrink trigger still sees the truth), and the emptied ladder
// then drains to the floor.
func TestElasticLeaseReclaim(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	a := NewElastic(256, ElasticConfig{
		MaxPasses: 0,
		Lease:     &LeaseOpts{Epochs: ep},
		Label:     "t-elease",
	})
	p := nativeProc(7)
	var names []int
	for i := 0; i < 200; i++ { // spans three levels (64+128 < 200)
		n := a.Acquire(p)
		if n < 0 {
			t.Fatalf("acquire %d failed", i)
		}
		names = append(names, n)
	}
	if act, _ := a.Levels(); act < 3 {
		t.Fatalf("resident levels %d, want >= 3", act)
	}
	doms := a.LeaseDomains()
	if len(doms) < 3 {
		t.Fatalf("%d lease domains, want one per resident level (>= 3)", len(doms))
	}
	// The holder "crashes": nobody heartbeats, epochs advance past any TTL,
	// and a sweep-shaped reclaim walks the domains.
	ep.Advance(100)
	reclaimed := 0
	for _, d := range doms {
		for i := 0; i < d.Stamps.Size(); i++ {
			if d.IsHeld(i) {
				d.Reclaim(p, i)
				reclaimed++
			}
		}
	}
	if reclaimed != len(names) {
		t.Fatalf("reclaimed %d, want %d", reclaimed, len(names))
	}
	if h := a.Held(); h != 0 {
		t.Fatalf("%d names held after reclaim", h)
	}
	for _, n := range names {
		if a.IsHeld(n) {
			t.Fatalf("name %d still held after reclaim", n)
		}
	}
	for a.Shrink() {
	}
	if act, _ := a.Levels(); act != 1 {
		t.Fatalf("resident levels %d after reclaim drain, want 1", act)
	}
}

// TestElasticSkipsSaturatedLevels covers the level-granular probe skip on
// the elastic ladder. A drain force-saturates the draining level's hints:
// with levels 0 and 1 full, an acquire spends no draw until the failed pass
// cancels the drain, which reopens the hints, and then takes one draw in
// the reopened level. The hints stay advisory: an active level whose hints
// were all forced (the window a racing drain leaves a straggler) is skipped
// by the probes yet still served by the deterministic scan.
func TestElasticSkipsSaturatedLevels(t *testing.T) {
	a := NewElastic(4096, ElasticConfig{WordScan: true, MaxPasses: 4, Label: "t-eskip"})
	a.Grow()
	a.Grow()
	space := func(li int) *shm.NameSpace { return a.levels[li].Load().space }
	filler := nativeProc(1)
	saturate(space(0), filler)
	saturate(space(1), filler)
	// One holder in level 2 keeps its drain pending.
	if space(2).ClaimFirstFree(filler, 0) < 0 {
		t.Fatal("level 2 claim failed")
	}
	if a.Shrink() {
		t.Fatal("Shrink retired a level with a holder")
	}
	if !space(2).Saturated() {
		t.Fatal("draining level not hint-saturated")
	}
	p := nativeProc(2)
	from := *p.Rand()
	n := a.Acquire(p)
	if li, _ := a.locate(n); li != 2 {
		t.Fatalf("acquired %d in level %d, want the reopened level 2", n, li)
	}
	if _, _, cancels := a.Resizes(); cancels != 1 {
		t.Fatalf("%d drain cancels, want 1", cancels)
	}
	// The cancel reopens level 2's 4 words: ProbeWord takes exactly one
	// draw among them.
	if d := draws(t, from, p); d != 1 {
		t.Fatalf("acquire took %d draws, want 1", d)
	}

	b := NewElastic(4096, ElasticConfig{WordScan: true, MaxPasses: 4, Label: "t-eskip-b"})
	b.Grow()
	saturate(b.levels[0].Load().space, filler)
	b.levels[1].Load().space.SaturateAll()
	from = *p.Rand()
	if n := b.Acquire(p); n != 64 {
		t.Fatalf("acquired %d, want 64: the scan must serve a level whose hints were forced", n)
	}
	if d := draws(t, from, p); d != 0 {
		t.Fatalf("acquire took %d draws, want 0 with every level hinted full", d)
	}
}

// TestElasticBatchPaths covers AcquireN/ReleaseN across a resize: a batch
// larger than the resident capacity grows the ladder mid-batch, the names
// are unique, and the batch release coalesces back cleanly.
func TestElasticBatchPaths(t *testing.T) {
	a := NewElastic(512, ElasticConfig{WordScan: true, MaxPasses: 0, Label: "t-ebatch"})
	p := nativeProc(0)
	out := a.AcquireN(p, 300, nil)
	if len(out) != 300 {
		t.Fatalf("batch served %d of 300", len(out))
	}
	seen := make(map[int]bool)
	for _, n := range out {
		if seen[n] {
			t.Fatalf("name %d issued twice in batch", n)
		}
		seen[n] = true
	}
	if a.CapacityNow() < 300 {
		t.Fatalf("CapacityNow %d after 300-name batch", a.CapacityNow())
	}
	a.ReleaseN(p, out)
	if h := a.Held(); h != 0 {
		t.Fatalf("%d held after batch release", h)
	}
}
