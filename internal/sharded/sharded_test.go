package sharded

import (
	"testing"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/sched"
	"shmrename/internal/shm"
)

// nativeProc returns an ungated proc for direct (non-simulated) arena use.
func nativeProc(id int) *shm.Proc {
	return shm.NewProc(id, prng.NewStream(17, id), nil, 1<<22)
}

func TestShardGeometry(t *testing.T) {
	a := New(256, Config{Shards: 4, Label: "ts-geom"})
	if a.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", a.Shards())
	}
	// Shards own disjoint contiguous ranges covering [0, bound).
	total, maxSub := 0, 0
	for s := 0; s < a.Shards(); s++ {
		if got := a.ShardBase(s); got != total {
			t.Fatalf("shard %d base = %d, want %d", s, got, total)
		}
		sub := a.Shard(s).NameBound()
		total += sub
		if sub > maxSub {
			maxSub = sub
		}
		if got := a.Shard(s).Capacity(); got != 64 {
			t.Fatalf("shard %d capacity = %d, want 64", s, got)
		}
	}
	if a.NameBound() != total {
		t.Fatalf("bound = %d, want %d", a.NameBound(), total)
	}
	// The documented tightness envelope: bound <= shards x per-shard bound.
	if a.NameBound() > a.Shards()*maxSub {
		t.Fatalf("bound %d exceeds shards(%d) x per-shard bound(%d)",
			a.NameBound(), a.Shards(), maxSub)
	}
	// Uneven split: capacity rounds up per shard, never down.
	u := New(100, Config{Shards: 3, Label: "ts-geom-u"})
	for s := 0; s < 3; s++ {
		if got := u.Shard(s).Capacity(); got != 34 {
			t.Fatalf("uneven shard %d capacity = %d, want 34", s, got)
		}
	}
}

func TestConfigPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, Config{Shards: 1}) },
		func() { New(16, Config{Shards: 0}) },
		func() { New(16, Config{Shards: 17}) },
	}
	for i, mk := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			mk()
		}()
	}
}

// TestAcquireReleaseReacquire checks the long-lived contract end to end:
// at least capacity distinct in-bound names, full drain, fresh generation
// after the drain.
func TestAcquireReleaseReacquire(t *testing.T) {
	const capacity = 96
	a := New(capacity, Config{Shards: 3, MaxPasses: 4, Label: "ts-level"})
	t.Run(a.Label(), func(t *testing.T) {
		p := nativeProc(0)
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
		if n := a.Acquire(p); n < 0 {
			t.Fatal("reacquire after drain failed")
		}
	})
}

// TestCrossShardUniqueness is the shard-correctness pin of the acceptance
// criteria: filling the arena to structural capacity, every issued name is
// globally unique, owned by exactly the shard its range says, and the
// per-shard holder counts sum to the global count.
func TestCrossShardUniqueness(t *testing.T) {
	const capacity = 128
	a := New(capacity, Config{Shards: 4, MaxPasses: 4, Label: "ts-cross"})
	p := nativeProc(0)
	owner := make(map[int]int) // name -> shard derived from the range split
	for {
		n := a.Acquire(p)
		if n < 0 {
			break
		}
		if _, dup := owner[n]; dup {
			t.Fatalf("name %d issued while held", n)
		}
		s := 0
		for s+1 < a.Shards() && a.ShardBase(s+1) <= n {
			s++
		}
		owner[n] = s
		// The owning shard must see the local name held; every other shard
		// must not know it at all (their bounds are local).
		if !a.Shard(s).IsHeld(n - a.ShardBase(s)) {
			t.Fatalf("name %d not held by its owning shard %d", n, s)
		}
	}
	if len(owner) < capacity {
		t.Fatalf("only %d names before full, capacity %d guaranteed", len(owner), capacity)
	}
	perShard := 0
	for s := 0; s < a.Shards(); s++ {
		perShard += a.Shard(s).Held()
	}
	if perShard != len(owner) || a.Held() != len(owner) {
		t.Fatalf("holder counts diverge: shards %d, arena %d, issued %d",
			perShard, a.Held(), len(owner))
	}
}

// TestAffinityMigration checks the routing heuristics: a cold process homes
// by PID, a successful steal migrates the affinity, and a release
// re-targets it at the freed shard.
func TestAffinityMigration(t *testing.T) {
	a := New(64, Config{Shards: 4, MaxPasses: 2, Label: "ts-aff"})
	p := nativeProc(1)
	if got := a.home(p); got != 1 {
		t.Fatalf("cold home = %d, want pid%%shards = 1", got)
	}
	// Fill the home shard entirely so the next acquire must steal.
	sub := a.Shard(1)
	filler := nativeProc(1)
	for i := 0; i < sub.NameBound(); i++ {
		if sub.Acquire(filler) < 0 {
			break
		}
	}
	n := a.Acquire(p)
	if n < 0 {
		t.Fatal("steal acquire failed")
	}
	s, _ := a.locate(n)
	if s == 1 {
		t.Fatal("acquire landed on the structurally full home shard")
	}
	if got := a.home(p); got != s {
		t.Fatalf("affinity after steal = %d, want winning shard %d", got, s)
	}
	// Releasing re-targets affinity at the freed shard.
	a.Release(p, n)
	if got := a.home(p); got != s {
		t.Fatalf("affinity after release = %d, want freed shard %d", got, s)
	}
}

// TestShardedBatchAcquireRelease checks the batch contract through the
// striped frontend, in both scan modes: batches are served across shards
// with globally distinct names, and ReleaseN drains every touched shard.
func TestShardedBatchAcquireRelease(t *testing.T) {
	const capacity = 96
	mks := []*Arena{
		New(capacity, Config{Shards: 3, MaxPasses: 4, Label: "ts-batch-l"}),
		New(capacity, Config{Shards: 3, MaxPasses: 4, WordScan: true, Label: "ts-batch-lw"}),
	}
	for i, a := range mks {
		scan := []string{"bit", "word"}[i]
		t.Run(a.Label()+"/"+scan, func(t *testing.T) {
			p := nativeProc(0)
			seen := make(map[int]bool)
			// One oversized batch forces the route through home, steal,
			// and sweep: a single shard holds only capacity/3 names.
			names := a.AcquireN(p, capacity, nil)
			if len(names) != capacity {
				t.Fatalf("batch got %d of %d (capacity guaranteed)", len(names), capacity)
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
			if h := a.Held(); h != capacity {
				t.Fatalf("held %d, want %d", h, capacity)
			}
			a.ReleaseN(p, names)
			if h := a.Held(); h != 0 {
				t.Fatalf("held %d after batch drain", h)
			}
			if got := a.AcquireN(p, 8, nil); len(got) != 8 {
				t.Fatalf("reacquire batch got %d of 8", len(got))
			}
		})
	}
}

// TestOccupancyHints checks the full-shard hint life cycle: a failed
// acquire against a full shard sets the hint, a release into the shard
// clears it, and hinted shards are skipped by the steal phase without
// spending steps while the sweep still serves from them.
func TestOccupancyHints(t *testing.T) {
	a := New(64, Config{Shards: 4, MaxPasses: 2, Label: "ts-hint"})
	p := nativeProc(1) // home shard 1
	// Fill home shard 1 structurally via the sub-arena.
	sub := a.Shard(1)
	filler := nativeProc(1)
	var held []int
	for {
		n := sub.Acquire(filler)
		if n < 0 {
			break
		}
		held = append(held, n)
	}
	if a.ShardOccupied(1) {
		t.Fatal("hint set before any frontend acquire observed the shard")
	}
	// The next frontend acquire fails on home, marks it, and steals.
	n := a.Acquire(p)
	if n < 0 {
		t.Fatal("steal acquire failed")
	}
	if !a.ShardOccupied(1) {
		t.Fatal("full home shard not hinted after failed acquire")
	}
	if s, _ := a.locate(n); s == 1 {
		t.Fatal("acquire landed on the full home shard")
	}
	// A release into the hinted shard reopens it.
	a.Release(p, a.ShardBase(1)+held[0])
	if a.ShardOccupied(1) {
		t.Fatal("hint not cleared by release into the shard")
	}
	// Hints are performance routing only — even stale-full hints on every
	// shard must not defeat the sweep. Fill the arena structurally, free
	// exactly one slot, then force every hint full: the next acquire must
	// still find the freed slot.
	var all []int
	for {
		n := a.Acquire(filler)
		if n < 0 {
			break
		}
		all = append(all, n)
	}
	freed := all[len(all)/2]
	a.Release(filler, freed)
	for s := 0; s < a.Shards(); s++ {
		a.occupied.Set(s)
	}
	got := a.Acquire(nativeProc(2))
	if got != freed {
		t.Fatalf("sweep under stale hints acquired %d, want the freed slot %d", got, freed)
	}
}

// TestShardedGoldenDeterminism pins the deterministic simulated-adversary
// churn fingerprint of the sharded frontend: for a fixed (seed, schedule)
// the monitor aggregates must be bit-identical across refactors, exactly
// like the single-backend goldens in package longlived.
func TestShardedGoldenDeterminism(t *testing.T) {
	type fingerprint struct {
		acquires, maxActive, maxName, acquireSteps int64
	}
	golden := map[string]fingerprint{
		"level/fifo":   {acquires: 144, maxActive: 29, maxName: 63, acquireSteps: 230},
		"level/random": {acquires: 144, maxActive: 25, maxName: 63, acquireSteps: 221},
	}
	run := func(mk func() *Arena, fast sched.FastMode) fingerprint {
		a := mk()
		mon := longlived.NewMonitor(a.NameBound())
		sched.Run(sched.Config{
			N:         48,
			Seed:      42,
			Fast:      fast,
			Body:      longlived.ChurnBody(a, mon, longlived.ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 4}),
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
	backends := map[string]func() *Arena{
		"level": func() *Arena {
			return New(64, Config{Shards: 4, Label: "ts-golden-l"})
		},
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

// TestShardedWordScanGolden pins the word-granular churn fingerprint of
// the striped frontend, mirroring the single-backend word goldens: each
// scan mode is its own deterministic contract.
func TestShardedWordScanGolden(t *testing.T) {
	type fingerprint struct {
		acquires, maxActive, maxName, acquireSteps int64
	}
	golden := map[string]fingerprint{
		"level-word/fifo":   {acquires: 144, maxActive: 38, maxName: 59, acquireSteps: 144},
		"level-word/random": {acquires: 144, maxActive: 33, maxName: 57, acquireSteps: 144},
	}
	run := func(mk func() *Arena, fast sched.FastMode) fingerprint {
		a := mk()
		mon := longlived.NewMonitor(a.NameBound())
		sched.Run(sched.Config{
			N:         48,
			Seed:      42,
			Fast:      fast,
			Body:      longlived.ChurnBody(a, mon, longlived.ChurnConfig{Cycles: 3, HoldMin: 0, HoldMax: 4}),
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
	backends := map[string]func() *Arena{
		"level-word": func() *Arena {
			return New(64, Config{Shards: 4, WordScan: true, Label: "ts-goldenw-l"})
		},
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

// TestShardedAdversarial churns the sharded frontend under the adaptive
// policies (including the release-starving collider): safety and full
// drain must hold under every adversary.
func TestShardedAdversarial(t *testing.T) {
	policies := map[string]func() sched.Policy{
		"round-robin": sched.RoundRobin,
		"collider":    sched.Collider,
		"starve":      func() sched.Policy { return sched.Starve(0, 1, 2) },
	}
	for pname, mk := range policies {
		t.Run("level/"+pname, func(t *testing.T) {
			a := New(32, Config{Shards: 4, Label: "ts-adv-level-" + pname})
			mon := longlived.NewMonitor(a.NameBound())
			res := sched.Run(sched.Config{
				N:         24,
				Seed:      7,
				Policy:    mk(),
				Body:      longlived.ChurnBody(a, mon, longlived.ChurnConfig{Cycles: 2, HoldMin: 0, HoldMax: 3}),
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

// TestShardedRaceStorm is the -race storm of the acceptance criteria: real
// goroutines hammer the striped frontend concurrently and the monitor
// asserts that no two live holders ever share a name — within a shard or
// across shards — at any instant.
func TestShardedRaceStorm(t *testing.T) {
	const workers = 48
	cycles := 200
	if testing.Short() {
		cycles = 40
	}
	for _, mk := range []func() *Arena{
		func() *Arena {
			return New(workers, Config{Shards: 4, Padded: true, Label: "ts-storm-l"})
		},
		func() *Arena {
			return New(workers, Config{Shards: 4, WordScan: true, Padded: true, Label: "ts-storm-lw"})
		},
	} {
		a := mk()
		t.Run(a.Label(), func(t *testing.T) {
			mon := longlived.NewMonitor(a.NameBound())
			res := sched.RunNative(workers, 3, longlived.ChurnBody(a, mon, longlived.ChurnConfig{
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
