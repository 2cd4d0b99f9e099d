package leasecache

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/recovery"
	"shmrename/internal/sharded"
	"shmrename/internal/shm"
)

func proc(id int) *shm.Proc {
	return shm.NewProc(id, prng.NewStream(7, id), nil, 0)
}

// newSharded builds the production shape: a word-scan sharded arena under
// the cache, as ArenaConfig.LeaseBlocks wires it.
func newSharded(capacity, shards int, cfg Config) (*Cache, *sharded.Arena) {
	inner := sharded.New(capacity, sharded.Config{
		Shards: shards, MaxPasses: 8, WordScan: true, Padded: true,
	})
	return New(inner, cfg), inner
}

// TestFastPathZeroSteps pins the tentpole claim: after the block lease,
// acquires and releases served by the worker cache cost zero step-counted
// shared-memory operations.
func TestFastPathZeroSteps(t *testing.T) {
	c, _ := newSharded(256, 1, Config{Block: 64, Slots: 1})
	p := proc(0)
	first := c.Acquire(p)
	if first < 0 {
		t.Fatal("acquire failed")
	}
	leaseSteps := p.Steps()
	if leaseSteps == 0 {
		t.Fatal("block lease cost no steps — not exercising the inner arena")
	}
	// The next Block-1 acquires and every release pop/push the local
	// stack: the step counter must not move at all.
	names := []int{first}
	for i := 0; i < 63; i++ {
		n := c.Acquire(p)
		if n < 0 {
			t.Fatalf("cached acquire %d failed", i)
		}
		names = append(names, n)
	}
	for _, n := range names {
		c.Release(p, n)
	}
	for i := 0; i < 64; i++ {
		if n := c.Acquire(p); n < 0 {
			t.Fatalf("recycled acquire %d failed", i)
		}
	}
	if got := p.Steps(); got != leaseSteps {
		t.Fatalf("fast path spent %d shared-memory steps (lease cost %d)", got-leaseSteps, leaseSteps)
	}
}

// TestUniqueWhileCaching checks holder uniqueness straight through the
// cache: names granted concurrently are pairwise distinct even as blocks
// lease, spill, and steal underneath.
func TestUniqueWhileCaching(t *testing.T) {
	c, _ := newSharded(512, 4, Config{Block: 16, Slots: 4, MaxCached: 24})
	mon := longlived.NewMonitor(c.NameBound())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := proc(id)
			r := p.Rand()
			held := make([]int, 0, 8)
			for cyc := 0; cyc < 400; cyc++ {
				for len(held) < 8 {
					before := p.Steps()
					n := c.Acquire(p)
					if n < 0 {
						break
					}
					mon.NoteAcquire(p.ID(), n, p.Steps()-before)
					held = append(held, n)
				}
				for len(held) > 0 && r.Intn(2) == 0 {
					n := held[len(held)-1]
					held = held[:len(held)-1]
					mon.NoteRelease(p.ID(), n)
					c.Release(p, n)
				}
			}
			for _, n := range held {
				mon.NoteRelease(p.ID(), n)
				c.Release(p, n)
			}
		}(g)
	}
	wg.Wait()
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	// Conservation: flushing the caches returns every parked name, and the
	// inner arena ends empty — nothing lost, nothing leaked.
	p := proc(999)
	c.Flush(p)
	if got := c.Cached(); got != 0 {
		t.Fatalf("%d names still parked after flush", got)
	}
	if h := c.Held(); h != 0 {
		t.Fatalf("%d names held after all releases", h)
	}
	if refills, _, _ := func() (int64, int64, int64) { return c.Stats() }(); refills == 0 {
		t.Fatal("storm never leased a block — cache not exercised")
	}
}

// TestConservationExact drains the whole arena through the cache and back:
// every name in [0, bound) is accounted for, none twice.
func TestConservationExact(t *testing.T) {
	c, inner := newSharded(128, 2, Config{Block: 32, Slots: 2})
	p := proc(0)
	seen := make(map[int]bool)
	var names []int
	for {
		n := c.Acquire(p)
		if n < 0 {
			break
		}
		if seen[n] {
			t.Fatalf("name %d granted twice", n)
		}
		seen[n] = true
		names = append(names, n)
	}
	// Parked + granted together cover the whole inner claim set.
	if got := len(names) + c.Cached(); got != inner.Held() {
		t.Fatalf("granted %d + parked %d != inner held %d", len(names), c.Cached(), inner.Held())
	}
	if len(names) < c.Capacity()-c.Cached() {
		t.Fatalf("only %d names before full (capacity %d, parked %d)", len(names), c.Capacity(), c.Cached())
	}
	for _, n := range names {
		c.Release(p, n)
	}
	c.Flush(p)
	if inner.Held() != 0 || c.Cached() != 0 {
		t.Fatalf("after drain: inner held %d, parked %d", inner.Held(), c.Cached())
	}
}

// TestIsHeldParked pins the visibility rule: a parked name is claimed in
// the inner arena but IsHeld is false through the cache — the public
// release guard must reject names the cache owns.
func TestIsHeldParked(t *testing.T) {
	c, inner := newSharded(128, 1, Config{Block: 8, Slots: 1})
	p := proc(0)
	n := c.Acquire(p)
	if !c.IsHeld(n) {
		t.Fatalf("granted name %d not held", n)
	}
	c.Release(p, n) // parks it
	if !inner.IsHeld(n) {
		t.Fatalf("parked name %d lost its inner claim", n)
	}
	if c.IsHeld(n) {
		t.Fatalf("parked name %d reports held through the cache", n)
	}
	if got := c.Held(); got != 0 {
		t.Fatalf("Held() = %d with everything parked", got)
	}
}

// TestPressureRelief pins the starvation valve: with every free name
// parked in another worker's cache, an acquirer first takes all of them
// (one steal); once the parked names are exhausted the pressure
// window routes releases straight to the inner pool.
func TestPressureRelief(t *testing.T) {
	c, _ := newSharded(64, 1, Config{Block: 64, Slots: 2, MaxCached: 64})
	pa, pb := proc(0), proc(1) // hash to different slots
	// A leases the whole arena: one granted, 63 parked in slot 0.
	a0 := c.Acquire(pa)
	if a0 < 0 {
		t.Fatal("bootstrap acquire failed")
	}
	// B's empty slot takes all of A's 63 parked names, serves the lowest
	// and parks the other 62; the empty inner arena is never asked.
	b0 := c.Acquire(pb)
	if b0 < 0 {
		t.Fatal("sibling refill failed with 63 names parked")
	}
	if refills, _, steals := c.Stats(); refills != 1 || steals != 1 {
		t.Fatalf("Stats() refills %d, steals %d after one lease and one sibling stock, want 1 and 1", refills, steals)
	}
	if a, b := c.slots[0].parked.Load(), c.slots[1].parked.Load(); a != 0 || b != 62 {
		t.Fatalf("parked counts %d/%d after the sibling stock, want 0/62", a, b)
	}
	// Drain every parked name; the next acquire is a genuine full report
	// and must open the pressure window.
	for c.steal(pb) >= 0 {
	}
	if n := c.Acquire(pb); n >= 0 {
		t.Fatalf("acquire got %d from a fully drained arena", n)
	}
	if c.pressure.Load() == 0 {
		t.Fatal("starved acquire left the pressure window closed")
	}
	// Under pressure a release bypasses the cache: the name returns to the
	// inner pool (not parked) so starved acquirers can claim it.
	before := c.Cached()
	c.Release(pa, a0)
	if c.Cached() != before {
		t.Fatal("release under pressure parked the name instead of feeding the pool")
	}
}

// TestSpillAtMaxCached pins the release-side bound: a slot at MaxCached
// spills one whole block back through a coalesced inner ReleaseN.
func TestSpillAtMaxCached(t *testing.T) {
	c, inner := newSharded(256, 1, Config{Block: 8, Slots: 1, MaxCached: 16})
	p := proc(0)
	var names []int
	for i := 0; i < 64; i++ {
		n := c.Acquire(p)
		if n < 0 {
			t.Fatalf("acquire %d failed", i)
		}
		names = append(names, n)
	}
	for _, n := range names {
		c.Release(p, n)
	}
	if c.Cached() > 16 {
		t.Fatalf("%d parked names exceed MaxCached=16", c.Cached())
	}
	if _, spills, _ := c.Stats(); spills == 0 {
		t.Fatal("64 releases into a 16-cap slot never spilled")
	}
	if free := inner.Capacity() - inner.Held(); free < 64-16 {
		t.Fatalf("only %d names back in the inner pool", free)
	}
}

// TestReclaimPurgesCache pins the crash-recovery composition: a recovery
// sweep that reclaims a parked name purges it from the cache first, so the
// cache can never grant a name the sweep returned to the pool.
func TestReclaimPurgesCache(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	inner := sharded.New(64, sharded.Config{
		Shards: 2, MaxPasses: 8, WordScan: true,
		Lease: &longlived.LeaseOpts{Epochs: ep},
	})
	c := New(inner, Config{Block: 16, Slots: 1})
	p := proc(1)
	n := c.Acquire(p)
	c.Release(p, n) // parked, lease stamp still live
	parked := c.Cached()
	if parked == 0 {
		t.Fatal("nothing parked")
	}
	// The holder goes silent past the TTL: the sweep reclaims the whole
	// cached block — parked names are leases like any other.
	ep.Advance(10)
	sw := recovery.NewSweeper(c, recovery.Config{TTL: 5, Epochs: ep})
	res := sw.Sweep(proc(200))
	if res.Reclaimed != parked {
		t.Fatalf("sweep reclaimed %d of %d parked names", res.Reclaimed, parked)
	}
	if c.Cached() != 0 {
		t.Fatalf("%d names still parked after reclaim — purge failed", c.Cached())
	}
	if inner.Held() != 0 {
		t.Fatalf("%d inner claims survive the sweep", inner.Held())
	}
	// The pool must be whole: full capacity acquirable with no duplicates.
	p2 := proc(2)
	seen := make(map[int]bool)
	got := 0
	for {
		m := c.Acquire(p2)
		if m < 0 {
			break
		}
		if seen[m] {
			t.Fatalf("name %d granted twice after reclaim", m)
		}
		seen[m] = true
		got++
	}
	if got+c.Cached() < c.Capacity() {
		t.Fatalf("pool lost names: %d granted + %d parked < capacity %d", got, c.Cached(), c.Capacity())
	}
}

// TestHeartbeatCoversParkedNames pins the "cached block is one lease"
// claim: HeartbeatHolder renews parked names along with granted ones.
func TestHeartbeatCoversParkedNames(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	holder := uint64(77)
	inner := longlived.NewLevel(64, longlived.LevelConfig{
		MaxPasses: 8, WordScan: true,
		Lease: &longlived.LeaseOpts{Epochs: ep, Holder: holder},
	})
	c := New(inner, Config{Block: 16, Slots: 1})
	p := proc(1)
	n := c.Acquire(p)
	c.Release(p, n)
	parked := c.Cached()
	ep.Advance(10)
	renewed := longlived.HeartbeatHolder(c, p, holder, ep.Now())
	if renewed != parked {
		t.Fatalf("heartbeat renewed %d of %d parked leases", renewed, parked)
	}
	// Renewed leases survive the sweep.
	sw := recovery.NewSweeper(c, recovery.Config{TTL: 5, Epochs: ep})
	if res := sw.Sweep(proc(200)); res.Reclaimed != 0 {
		t.Fatalf("sweep reclaimed %d renewed leases", res.Reclaimed)
	}
	if c.Cached() != parked {
		t.Fatalf("parked count moved: %d -> %d", parked, c.Cached())
	}
}

// TestGoldenGrantSequence pins the deterministic grant order of a
// single-proc churn through the cache (fixed seed, fixed config). The
// fingerprint changing means the cache's serving order changed — which
// would change the latency distribution the cached benchmarks measure. Proc
// 3's home stripe is 1, yet refills lease first-fit, so every grant must
// also lie in stripe 0. A refill grants its block's lowest name, and the
// rest of the block comes out ascending: names released meanwhile are
// pushed above it and granted first, but never reorder it.
func TestGoldenGrantSequence(t *testing.T) {
	c, inner := newSharded(128, 2, Config{Block: 16, Slots: 2})
	p := proc(3)
	h := fnv.New64a()
	held := make([]int, 0, 32)
	// block holds the names the last refill parked that have not been
	// granted yet; last is the latest grant among the block's names.
	block, last := map[int]bool{}, -1
	for cyc := 0; cyc < 200; cyc++ {
		for i := 0; i < 1+cyc%7; i++ {
			before, _, _ := c.Stats()
			n := c.Acquire(p)
			if n < 0 {
				t.Fatalf("cycle %d: acquire failed", cyc)
			}
			if n >= inner.ShardBase(1) {
				t.Fatalf("cycle %d: granted %d, outside stripe 0 [0, %d)", cyc, n, inner.ShardBase(1))
			}
			if refills, _, _ := c.Stats(); refills > before {
				clear(block)
				for _, m := range c.slots[1].names {
					if m < n {
						t.Fatalf("cycle %d: refill granted %d above %d of its own block", cyc, n, m)
					}
					block[m] = true
				}
				last = n
			} else if block[n] {
				if n < last {
					t.Fatalf("cycle %d: block name %d granted after %d", cyc, n, last)
				}
				delete(block, n)
				last = n
			}
			fmt.Fprintf(h, "a%d.", n)
			held = append(held, n)
		}
		for i := 0; i < 1+cyc%7 && len(held) > 0; i++ {
			n := held[0]
			held = held[1:]
			fmt.Fprintf(h, "r%d.", n)
			c.Release(p, n)
		}
	}
	const want = "d3d703badc9f5323"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("grant-sequence fingerprint %s, want %s", got, want)
	}
}
