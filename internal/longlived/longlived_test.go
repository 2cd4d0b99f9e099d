package longlived

import (
	"fmt"
	"testing"

	"shmrename/internal/prng"
	"shmrename/internal/sched"
	"shmrename/internal/shm"
	"shmrename/internal/taureg"
)

// nativeProc returns an ungated proc for direct (non-simulated) arena use.
func nativeProc(id int) *shm.Proc {
	return shm.NewProc(id, prng.NewStream(99, id), nil, 1<<22)
}

// arenas returns one instance of every backend at the given capacity,
// configured for direct native use — both probe paths and their
// word-granular counterparts, so every contract test covers all four.
func arenas(capacity, maxPasses int) []Arena {
	return []Arena{
		NewLevel(capacity, LevelConfig{MaxPasses: maxPasses, Label: "t-level"}),
		NewTau(capacity, TauConfig{MaxPasses: maxPasses, SelfClocked: true, Label: "t-tau"}),
		NewLevel(capacity, LevelConfig{MaxPasses: maxPasses, WordScan: true, Label: "t-level-w"}),
		NewTau(capacity, TauConfig{MaxPasses: maxPasses, WordScan: true, SelfClocked: true, Label: "t-tau-w"}),
	}
}

func TestAcquireReleaseReacquire(t *testing.T) {
	const capacity = 100
	for _, a := range arenas(capacity, 4) {
		t.Run(a.Label(), func(t *testing.T) {
			p := nativeProc(0)
			// Capacity is the guaranteed concurrency floor: at least that
			// many acquires must succeed with distinct in-bound names.
			// Beyond it the arena may keep serving from slack slots until
			// it is structurally full and reports -1.
			var names []int
			seen := make(map[int]bool)
			for {
				n := a.Acquire(p)
				if n == -1 {
					break
				}
				if n < 0 || n >= a.NameBound() {
					t.Fatalf("acquire %d: name %d outside [0,%d)", len(names), n, a.NameBound())
				}
				if seen[n] {
					t.Fatalf("acquire %d: name %d issued twice", len(names), n)
				}
				seen[n] = true
				names = append(names, n)
				if len(names) > a.NameBound() {
					t.Fatal("more live names than the name bound")
				}
			}
			if len(names) < capacity {
				t.Fatalf("only %d acquires before full, capacity %d guaranteed", len(names), capacity)
			}
			if h := a.Held(); h != len(names) {
				t.Fatalf("held %d, want %d", h, len(names))
			}
			// Touch and release everything; the names return to the pool.
			for _, n := range names {
				if !a.IsHeld(n) {
					t.Fatalf("name %d not held before release", n)
				}
				a.Touch(p, n)
				a.Release(p, n)
				if a.IsHeld(n) {
					t.Fatalf("name %d still held after release", n)
				}
			}
			if h := a.Held(); h != 0 {
				t.Fatalf("held %d after full drain, want 0", h)
			}
			// Long-lived: the drained arena serves a fresh generation.
			if n := a.Acquire(p); n < 0 {
				t.Fatal("reacquire after drain failed")
			}
		})
	}
}

func TestReleaseOutOfRangePanics(t *testing.T) {
	for _, a := range arenas(16, 1) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: release of out-of-range name did not panic", a.Label())
				}
			}()
			a.Release(nativeProc(0), a.NameBound())
		}()
	}
}

func TestLevelGeometry(t *testing.T) {
	a := NewLevel(1024, LevelConfig{Label: "t-geom"})
	// Ladder 64,128,256,512 then the 1024 backstop.
	if got := a.Levels(); got != 5 {
		t.Fatalf("levels = %d, want 5", got)
	}
	if got := a.NameBound(); got != 64+128+256+512+1024 {
		t.Fatalf("name bound = %d", got)
	}
	// Capacity below the 64-name base level degenerates to a single
	// backstop level.
	small := NewLevel(8, LevelConfig{Label: "t-geom-s"})
	if small.Levels() != 1 || small.NameBound() != 8 {
		t.Fatalf("small arena: levels=%d bound=%d", small.Levels(), small.NameBound())
	}
}

func TestTauThresholdNeverExceeded(t *testing.T) {
	const capacity = 128
	a := NewTau(capacity, TauConfig{SelfClocked: true, Label: "t-thresh"})
	mon := NewMonitor(a.NameBound())
	sched.Run(sched.Config{
		N:    capacity,
		Seed: 5,
		Fast: sched.FastRandom,
		Body: ChurnBody(a, mon, ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 6}),
	})
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < a.NumDevices(); d++ {
		if c := a.Device(d).ConfirmedCount(); c > a.Tau() {
			t.Fatalf("device %d confirmed %d > tau %d", d, c, a.Tau())
		}
	}
	if h := a.Held(); h != 0 {
		t.Fatalf("%d names held after drain", h)
	}
}

// TestChurnSimulatedGolden pins the deterministic simulated-adversary churn
// outcome: for a fixed (seed, schedule) the monitor's aggregate fingerprint
// — acquires, peak occupancy, max issued name, and total acquire steps —
// must be bit-identical across refactors.
func TestChurnSimulatedGolden(t *testing.T) {
	type fingerprint struct {
		acquires, maxActive, maxName, acquireSteps int64
	}
	golden := map[string]fingerprint{
		"level/fifo":   {acquires: 144, maxActive: 27, maxName: 63, acquireSteps: 268},
		"level/random": {acquires: 144, maxActive: 26, maxName: 63, acquireSteps: 245},
		"tau/fifo":     {acquires: 144, maxActive: 27, maxName: 65, acquireSteps: 541},
		"tau/random":   {acquires: 144, maxActive: 20, maxName: 65, acquireSteps: 530},
	}
	run := func(mk func() Arena, fast sched.FastMode) fingerprint {
		a := mk()
		mon := NewMonitor(a.NameBound())
		sched.Run(sched.Config{
			N:         48,
			Seed:      42,
			Fast:      fast,
			Body:      ChurnBody(a, mon, ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 4}),
			AfterStep: a.Clock(),
		})
		if err := mon.Err(); err != nil {
			t.Fatal(err)
		}
		if h := a.Held(); h != 0 {
			t.Fatalf("%d names held after drain", h)
		}
		return fingerprint{mon.Acquires(), mon.MaxActive(), mon.MaxName(), mon.AcquireSteps()}
	}
	backends := map[string]func() Arena{
		"level": func() Arena { return NewLevel(64, LevelConfig{Label: "t-golden-l"}) },
		"tau":   func() Arena { return NewTau(64, TauConfig{Label: "t-golden-t"}) },
	}
	modes := map[string]sched.FastMode{"fifo": sched.FastFIFO, "random": sched.FastRandom}
	for bname, mk := range backends {
		for mname, mode := range modes {
			key := bname + "/" + mname
			got := run(mk, mode)
			want, ok := golden[key]
			if !ok {
				t.Fatalf("%s: no golden (got %+v)", key, got)
			}
			if got != want {
				t.Errorf("%s: fingerprint %+v, want golden %+v", key, got, want)
			}
		}
	}
}

// TestChurnWordScanGolden pins the deterministic churn fingerprint of the
// word-granular fast path, exactly as TestChurnSimulatedGolden pins the
// probe path: the word engine is behind a config switch, and each mode has
// its own bit-identical contract.
func TestChurnWordScanGolden(t *testing.T) {
	type fingerprint struct {
		acquires, maxActive, maxName, acquireSteps int64
	}
	golden := map[string]fingerprint{
		"level-word/fifo":   {acquires: 144, maxActive: 38, maxName: 47, acquireSteps: 144},
		"level-word/random": {acquires: 144, maxActive: 33, maxName: 40, acquireSteps: 144},
		"tau-word/fifo":     {acquires: 144, maxActive: 32, maxName: 63, acquireSteps: 490},
		"tau-word/random":   {acquires: 144, maxActive: 22, maxName: 65, acquireSteps: 495},
	}
	run := func(mk func() Arena, fast sched.FastMode) fingerprint {
		a := mk()
		mon := NewMonitor(a.NameBound())
		sched.Run(sched.Config{
			N:         48,
			Seed:      42,
			Fast:      fast,
			Body:      ChurnBody(a, mon, ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 4}),
			AfterStep: a.Clock(),
		})
		if err := mon.Err(); err != nil {
			t.Fatal(err)
		}
		if h := a.Held(); h != 0 {
			t.Fatalf("%d names held after drain", h)
		}
		return fingerprint{mon.Acquires(), mon.MaxActive(), mon.MaxName(), mon.AcquireSteps()}
	}
	backends := map[string]func() Arena{
		"level-word": func() Arena { return NewLevel(64, LevelConfig{WordScan: true, Label: "t-goldenw-l"}) },
		"tau-word":   func() Arena { return NewTau(64, TauConfig{WordScan: true, Label: "t-goldenw-t"}) },
	}
	modes := map[string]sched.FastMode{"fifo": sched.FastFIFO, "random": sched.FastRandom}
	for bname, mk := range backends {
		for mname, mode := range modes {
			key := bname + "/" + mname
			got := run(mk, mode)
			want, ok := golden[key]
			if !ok {
				t.Fatalf("%s: no golden (got %+v)", key, got)
			}
			if got != want {
				t.Errorf("%s: fingerprint %+v, want golden %+v", key, got, want)
			}
		}
	}
}

// TestChurnMultiWordGolden pins the word path on multi-word ladders, in
// the shape of BENCH_4's simulated cells: NewLevel(n), FIFO, seed 1, n/batch
// procs churning batches of 1 and 4. The one-word ladders of
// TestChurnWordScanGolden cannot see which word a probe picks; here levels
// span 2–16 words (n=1024) and up to 64 (n=4096, BENCH_4's gate cell), so
// the fingerprint pins where the probes put holders (max name: first fit
// until a claim is lost, then the shm.NameSpace.ProbeWord window) and what
// the contended claims cost in steps. The word path must stay at least 2×
// below the bit path in acquire steps, BENCH_4's reduction gate.
func TestChurnMultiWordGolden(t *testing.T) {
	type fingerprint struct {
		acquires, maxName, acquireSteps int64
	}
	type cell struct{ n, batch int }
	golden := map[cell]fingerprint{
		{1024, 1}: {acquires: 4096, maxName: 1023, acquireSteps: 11123},
		{1024, 4}: {acquires: 4096, maxName: 1023, acquireSteps: 3072},
		{4096, 1}: {acquires: 16384, maxName: 4241, acquireSteps: 88842},
	}
	run := func(wordScan bool, c cell) fingerprint {
		a := NewLevel(c.n, LevelConfig{WordScan: wordScan, Label: "t-goldenmw"})
		mon := NewMonitor(a.NameBound())
		sched.Run(sched.Config{
			N:         c.n / c.batch,
			Seed:      1,
			Fast:      sched.FastFIFO,
			Body:      BatchChurnBody(a, mon, ChurnConfig{Cycles: 4, HoldMax: 8}, c.batch),
			AfterStep: a.Clock(),
		})
		if err := mon.Err(); err != nil {
			t.Fatal(err)
		}
		if h := a.Held(); h != 0 {
			t.Fatalf("%d names held after drain", h)
		}
		return fingerprint{mon.Acquires(), mon.MaxName(), mon.AcquireSteps()}
	}
	for _, c := range []cell{{1024, 1}, {1024, 4}, {4096, 1}} {
		got := run(true, c)
		if want := golden[c]; got != want {
			t.Errorf("n=%d batch %d: fingerprint %+v, want golden %+v", c.n, c.batch, got, want)
		}
		bit := run(false, c)
		t.Logf("n=%d batch %d: word %.3f, bit %.3f steps/acquire", c.n, c.batch,
			float64(got.acquireSteps)/float64(got.acquires), float64(bit.acquireSteps)/float64(bit.acquires))
		if 2*got.acquireSteps > bit.acquireSteps {
			t.Errorf("n=%d batch %d: word path took %d acquire steps, bit path %d: want at least 2x fewer",
				c.n, c.batch, got.acquireSteps, bit.acquireSteps)
		}
	}
}

// TestBatchAcquireRelease checks the batch contract on every backend:
// AcquireN serves distinct in-bound names up to capacity, partial batches
// appear only when the arena is structurally full, and ReleaseN drains.
func TestBatchAcquireRelease(t *testing.T) {
	const capacity = 96
	for _, a := range arenas(capacity, 4) {
		t.Run(a.Label(), func(t *testing.T) {
			p := nativeProc(0)
			seen := make(map[int]bool)
			var batches [][]int
			total := 0
			for total < capacity {
				k := 7
				if rem := capacity - total; k > rem {
					k = rem
				}
				names := a.AcquireN(p, k, nil)
				if len(names) != k {
					t.Fatalf("batch at %d held: got %d of %d (capacity %d guaranteed)",
						total, len(names), k, capacity)
				}
				for _, n := range names {
					if n < 0 || n >= a.NameBound() {
						t.Fatalf("name %d outside [0,%d)", n, a.NameBound())
					}
					if seen[n] {
						t.Fatalf("name %d issued twice", n)
					}
					seen[n] = true
				}
				batches = append(batches, names)
				total += k
			}
			if h := a.Held(); h != total {
				t.Fatalf("held %d, want %d", h, total)
			}
			// Beyond structural capacity the batch comes back short, and
			// what was granted is consistent (still unique, still in bound).
			over := a.AcquireN(p, a.NameBound(), nil)
			for _, n := range over {
				if seen[n] {
					t.Fatalf("over-batch reissued held name %d", n)
				}
				seen[n] = true
			}
			if len(over)+total > a.NameBound() {
				t.Fatalf("issued %d names, bound %d", len(over)+total, a.NameBound())
			}
			a.ReleaseN(p, over)
			for _, b := range batches {
				a.ReleaseN(p, b)
			}
			if h := a.Held(); h != 0 {
				t.Fatalf("held %d after batch drain", h)
			}
			// The drained arena serves a fresh batch generation.
			if names := a.AcquireN(p, 5, nil); len(names) != 5 {
				t.Fatalf("reacquire batch got %d of 5", len(names))
			}
		})
	}
}

// TestBatchChurnSimulated runs the E17 workload shape on the simulator:
// batch churn with demand exactly equal to capacity, the full-occupancy
// regime. Safety (unique live names) and a full drain must hold for both
// scan modes.
func TestBatchChurnSimulated(t *testing.T) {
	const workers, batch = 16, 4
	backends := map[string]func() Arena{
		"level-bit":  func() Arena { return NewLevel(workers*batch, LevelConfig{Label: "t-bchurn-l"}) },
		"level-word": func() Arena { return NewLevel(workers*batch, LevelConfig{WordScan: true, Label: "t-bchurn-lw"}) },
		"tau-bit":    func() Arena { return NewTau(workers*batch, TauConfig{Label: "t-bchurn-t"}) },
		"tau-word":   func() Arena { return NewTau(workers*batch, TauConfig{WordScan: true, Label: "t-bchurn-tw"}) },
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			a := mk()
			mon := NewMonitor(a.NameBound())
			res := sched.Run(sched.Config{
				N:         workers,
				Seed:      11,
				Fast:      sched.FastFIFO,
				Body:      BatchChurnBody(a, mon, ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 4}, batch),
				AfterStep: a.Clock(),
			})
			if err := mon.Err(); err != nil {
				t.Fatal(err)
			}
			if got := sched.CountStatus(res, sched.Unnamed); got != workers {
				t.Fatalf("%d of %d workers drained", got, workers)
			}
			if want := int64(workers) * 3 * batch; mon.Acquires() != want {
				t.Fatalf("acquires = %d, want %d", mon.Acquires(), want)
			}
			if h := a.Held(); h != 0 {
				t.Fatalf("%d names held after drain", h)
			}
		})
	}
}

// TestBatchChurnRaceStorm hammers the batch API from real goroutines under
// -race: whole batches acquired and released concurrently, never two live
// holders of one name.
func TestBatchChurnRaceStorm(t *testing.T) {
	const workers, batch = 24, 4
	cycles := 100
	if testing.Short() {
		cycles = 20
	}
	for _, mk := range []func() Arena{
		func() Arena {
			return NewLevel(workers*batch, LevelConfig{WordScan: true, Padded: true, Label: "t-bstorm-l"})
		},
		func() Arena {
			return NewTau(workers*batch, TauConfig{WordScan: true, SelfClocked: true, Padded: true, Label: "t-bstorm-t"})
		},
	} {
		a := mk()
		t.Run(a.Label(), func(t *testing.T) {
			mon := NewMonitor(a.NameBound())
			res := sched.RunNative(workers, 5, BatchChurnBody(a, mon, ChurnConfig{
				Cycles: cycles, HoldMin: 0, HoldMax: 4,
			}, batch))
			if err := mon.Err(); err != nil {
				t.Fatal(err)
			}
			if got := sched.CountStatus(res, sched.Unnamed); got != workers {
				t.Fatalf("%d of %d workers drained", got, workers)
			}
			if want := int64(workers) * int64(cycles) * batch; mon.Acquires() != want {
				t.Fatalf("acquires = %d, want %d", mon.Acquires(), want)
			}
			if h := a.Held(); h != 0 {
				t.Fatalf("%d names held after storm", h)
			}
		})
	}
}

// TestWordScanFullOccupancyCheaper pins the point of the word engine with
// a deterministic steps comparison: at full occupancy minus one slot, a
// probe-path acquire pays per-bit probes plus a per-name backstop scan,
// while the word path pays per-word snapshots — at least an order of
// magnitude fewer shared-memory accesses at this size.
func TestWordScanFullOccupancyCheaper(t *testing.T) {
	const capacity = 1024
	steps := func(wordScan bool) int64 {
		a := NewLevel(capacity, LevelConfig{WordScan: wordScan, MaxPasses: 4,
			Label: fmt.Sprintf("t-occ-%v", wordScan)})
		filler := nativeProc(1)
		for {
			if a.Acquire(filler) < 0 {
				break
			}
		}
		// Free exactly one slot in the backstop level, then measure one
		// acquire finding it.
		free := a.NameBound() - 1
		a.Release(filler, free)
		p := nativeProc(2)
		before := p.Steps()
		if got := a.Acquire(p); got != free {
			t.Fatalf("wordScan=%v: acquired %d, want the freed slot %d", wordScan, got, free)
		}
		return p.Steps() - before
	}
	probe := steps(false)
	word := steps(true)
	if word*10 > probe {
		t.Fatalf("word path %d steps vs probe path %d: want >= 10x cheaper at full occupancy", word, probe)
	}
}

// draws counts the random numbers p consumed since from was snapshotted
// from its generator.
func draws(t *testing.T, from prng.Rand, p *shm.Proc) int {
	t.Helper()
	for n := 0; n <= 1000; n++ {
		if from == *p.Rand() {
			return n
		}
		from.Uint64()
	}
	t.Fatal("generator moved more than 1000 draws")
	return -1
}

// saturate claims every free name of s and then observes each word full,
// which sets every word's saturation hint.
func saturate(s *shm.NameSpace, p *shm.Proc) {
	for w := 0; w < s.Words(); w++ {
		for s.ClaimFirstFree(p, w) >= 0 {
		}
	}
}

// TestLevelSkipsSaturatedLevels pins the level-granular probe skip: with
// levels 0–3 of a word-scan ladder saturated and hinted, an acquire spends
// no random draw on them and takes its single draw in level 4. Freeing one
// level-0 name clears its word's hint, so the next acquire probes level 0
// again and returns exactly that name.
func TestLevelSkipsSaturatedLevels(t *testing.T) {
	a := NewLevel(4096, LevelConfig{WordScan: true, MaxPasses: 4, Label: "t-skip"})
	filler := nativeProc(1)
	for li := 0; li < 4; li++ {
		saturate(a.levels[li], filler)
		if !a.levels[li].Saturated() {
			t.Fatalf("level %d not saturated after fill", li)
		}
	}
	p := nativeProc(2)
	from := *p.Rand()
	n := a.Acquire(p)
	// Level 4's 16 words are all open: ProbeWord takes exactly one draw
	// and lands in one of its 4 lowest words.
	if li, i := a.locate(n); li != 4 || i >= 4*64 {
		t.Fatalf("acquired %d (local %d of level %d), want one of level 4's 4 lowest words", n, i, li)
	}
	if d := draws(t, from, p); d != 1 {
		t.Fatalf("acquire took %d draws, want 1 (none for the saturated levels 0-3)", d)
	}
	const freed = 5
	a.Release(filler, freed)
	if got := a.Acquire(p); got != freed {
		t.Fatalf("acquire after freeing level-0 name %d returned %d", freed, got)
	}
}

// TestChurnAdversarial runs churn under the adaptive policies, including
// the release-starving collider: safety (unique live names) and liveness
// (every worker drains) must hold under every adversary.
func TestChurnAdversarial(t *testing.T) {
	policies := map[string]func() sched.Policy{
		"round-robin": sched.RoundRobin,
		"collider":    sched.Collider,
		"starve":      func() sched.Policy { return sched.Starve(0, 1, 2) },
	}
	for pname, mk := range policies {
		for _, backend := range []string{"level", "tau"} {
			t.Run(backend+"/"+pname, func(t *testing.T) {
				var a Arena
				if backend == "level" {
					a = NewLevel(32, LevelConfig{Label: "t-adv-l"})
				} else {
					a = NewTau(32, TauConfig{Label: "t-adv-t"})
				}
				mon := NewMonitor(a.NameBound())
				res := sched.Run(sched.Config{
					N:         24,
					Seed:      7,
					Policy:    mk(),
					Body:      ChurnBody(a, mon, ChurnConfig{Cycles: 2, HoldMin: 0, HoldMax: 3}),
					AfterStep: a.Clock(),
					Spaces:    a.Probeables(),
				})
				if err := mon.Err(); err != nil {
					t.Fatal(err)
				}
				if got := sched.CountStatus(res, sched.Unnamed); got != 24 {
					t.Fatalf("%d of 24 workers drained", got)
				}
				if h := a.Held(); h != 0 {
					t.Fatalf("%d names held after drain", h)
				}
			})
		}
	}
}

// TestChurnRaceStorm is the -race storm of the acceptance criteria: real
// goroutines hammer Acquire/Release concurrently and the monitor asserts
// that no two live holders ever share a name at any instant.
func TestChurnRaceStorm(t *testing.T) {
	const workers = 48
	cycles := 200
	if testing.Short() {
		cycles = 40
	}
	for _, mk := range []func() Arena{
		func() Arena {
			return NewLevel(workers, LevelConfig{Padded: true, Label: "t-storm-l"})
		},
		func() Arena {
			return NewTau(workers, TauConfig{SelfClocked: true, Padded: true, Label: "t-storm-t"})
		},
	} {
		a := mk()
		t.Run(a.Label(), func(t *testing.T) {
			mon := NewMonitor(a.NameBound())
			res := sched.RunNative(workers, 3, ChurnBody(a, mon, ChurnConfig{
				Cycles: cycles, HoldMin: 0, HoldMax: 4,
			}))
			if err := mon.Err(); err != nil {
				t.Fatal(err)
			}
			if got := sched.CountStatus(res, sched.Unnamed); got != workers {
				t.Fatalf("%d of %d workers drained", got, workers)
			}
			if want := int64(workers) * int64(cycles); mon.Acquires() != want {
				t.Fatalf("acquires = %d, want %d", mon.Acquires(), want)
			}
			if h := a.Held(); h != 0 {
				t.Fatalf("%d names held after storm", h)
			}
		})
	}
}

// TestDeviceReleaseBit covers the long-lived τ-register extension directly:
// a released bit frees device capacity and becomes winnable again.
func TestDeviceReleaseBit(t *testing.T) {
	d := taureg.NewDevice("t-release-dev", 8, 2, true)
	p := nativeProc(0)
	if d.AcquireBit(p, 3) != taureg.Won {
		t.Fatal("bit 3 not won")
	}
	if d.AcquireBit(p, 5) != taureg.Won {
		t.Fatal("bit 5 not won")
	}
	// Threshold reached: a third bit must lose.
	if d.AcquireBit(p, 1) != taureg.Lost {
		t.Fatal("bit 1 won beyond threshold")
	}
	d.ReleaseBit(p, 3)
	in, out := d.Snapshot()
	if in&(1<<3) != 0 || out&(1<<3) != 0 {
		t.Fatalf("bit 3 still set after release: in=%b out=%b", in, out)
	}
	// The freed capacity and the freed bit are both reusable.
	if d.AcquireBit(p, 3) != taureg.Won {
		t.Fatal("released bit 3 not rewinnable")
	}
	if d.ConfirmedCount() != 2 {
		t.Fatalf("confirmed %d, want 2", d.ConfirmedCount())
	}
}

// TestMonitorDetectsViolations verifies the churn monitor itself reports
// double-acquire and foreign-release.
func TestMonitorDetectsViolations(t *testing.T) {
	m := NewMonitor(4)
	m.NoteAcquire(0, 2, 1)
	m.NoteAcquire(1, 2, 1)
	if m.Err() == nil {
		t.Fatal("double acquire not detected")
	}
	m = NewMonitor(4)
	m.NoteAcquire(0, 2, 1)
	m.NoteRelease(1, 2)
	if m.Err() == nil {
		t.Fatal("foreign release not detected")
	}
}

func ExampleChurnBody() {
	arena := NewLevel(8, LevelConfig{Label: "example-arena"})
	mon := NewMonitor(arena.NameBound())
	sched.Run(sched.Config{
		N:    4,
		Seed: 1,
		Fast: sched.FastFIFO,
		Body: ChurnBody(arena, mon, ChurnConfig{Cycles: 2}),
	})
	fmt.Println("acquires:", mon.Acquires(), "violations:", mon.Err() == nil, "held:", arena.Held())
	// Output: acquires: 8 violations: true held: 0
}
