package leasecache

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmrename/internal/longlived"
	"shmrename/internal/sharded"
	"shmrename/internal/shm"
)

// TestHopKeepsSlackPerWorker moves one worker's proc to the next slot
// every 500 operations, as a goroutine whose pooled proc changes P does,
// while it churns 1000 ± 100 holders. A slot the worker leaves keeps its
// parked names until a refill takes them, so the slack is one active
// worker's: the largest name issued once the churn has settled stays
// below the most holders plus MaxCached, and at most 2×MaxCached names —
// the slot left behind and the slot being filled — are ever parked,
// whatever the slot count. Leasing fresh blocks while the slots left
// behind stay full grows both with Slots.
func TestHopKeepsSlackPerWorker(t *testing.T) {
	const (
		ops, hop         = 200_000, 500
		minHeld, maxHeld = 900, 1100
		block, maxCached = 64, 2 * 64
	)
	for _, slots := range []int{1, 2, 4, 8} {
		c, _ := newSharded(4096, 2, Config{Block: block, Slots: slots, MaxCached: maxCached})
		procs := make([]*shm.Proc, slots)
		for i := range procs {
			procs[i] = proc(i)
		}
		r := procs[0].Rand()
		var held []int
		top, peak := -1, 0
		for i := range ops {
			p := procs[i/hop%slots]
			if len(held) > minHeld && (len(held) >= maxHeld || r.Intn(2) == 0) {
				j := r.Intn(len(held))
				c.Release(p, held[j])
				held[j] = held[len(held)-1]
				held = held[:len(held)-1]
			} else {
				n := c.Acquire(p)
				if n < 0 {
					t.Fatalf("slots %d: acquire %d failed with %d held", slots, i, len(held))
				}
				held = append(held, n)
				if i >= ops/2 {
					top = max(top, n)
				}
			}
			peak = max(peak, c.Cached())
		}
		refills, _, steals := c.Stats()
		t.Logf("slots %d: highest name in the second half %d, peak Cached %d, refills %d, steals %d",
			slots, top, peak, refills, steals)
		if top >= maxHeld+maxCached {
			t.Errorf("slots %d: issued name %d in the second half, want < %d holders + MaxCached", slots, top, maxHeld+maxCached)
		}
		if peak > 2*maxCached {
			t.Errorf("slots %d: %d names parked at peak, want ≤ 2×MaxCached = %d", slots, peak, 2*maxCached)
		}
	}
}

// reclaimHook runs check on each name the recovery reclaim frees, after
// the cache's wrapper purged it and before the claim bit is cleared.
type reclaimHook struct {
	*sharded.Arena
	check func(name int)
}

func (h reclaimHook) LeaseDomains() []longlived.LeaseDomain {
	domains := h.Arena.LeaseDomains()
	for i := range domains {
		base, free := domains[i].Base, domains[i].Reclaim
		domains[i].Reclaim = func(p *shm.Proc, j int) {
			h.check(base + j)
			free(p, j)
		}
	}
	return domains
}

// TestSiblingRefillPurgeStorm races sibling refills against the recovery
// reclaim: four workers churn a tight arena, each moving its proc to the
// next slot every 64 operations and holding a target that rises and
// falls, so slots run dry and take blocks from each other, while a purger
// reclaims random parked names through the LeaseDomains wrapper (suspect
// mark, Reclaim, tombstone, as a sweep does). The purge must find a name
// that a refill moves mid-sweep: a name still parked when its claim bit
// is about to be freed fails the test. No spill runs (MaxCached is the
// capacity), so a parked name leaves the stacks only as a grant or
// through the purge.
//
// Per name, own is 0 (parked, free or between a pop and its grant
// check), 1 (held), 2 (being reclaimed) or 3 (being released). The
// purger claims 0 → 2, so a held or releasing name is never reclaimed; a
// worker whose pop lands on a name at 2 drops it, as a holder that lost
// its lease would. gate keeps acquires out while the purger checks and
// frees, so no pop is between the cache and its grant check then.
func TestSiblingRefillPurgeStorm(t *testing.T) {
	const capacity, workers, iters, hop = 64, 4, 20000, 64
	ep := shm.NewCounterEpochs(1)
	inner := sharded.New(capacity, sharded.Config{
		Shards: 2, MaxPasses: 8, WordScan: true,
		// One holder for every proc, as the public arena stamps its PID: a
		// name leased by one slot's proc is released by another's.
		Lease: &longlived.LeaseOpts{Epochs: ep, Holder: func(*shm.Proc) uint64 { return 1 }},
	})
	var gate sync.RWMutex
	var c *Cache
	hook := reclaimHook{inner, func(name int) {
		gate.Lock() // released by the purger once the name is free
		if c.parked(name) {
			t.Errorf("name %d is still parked when its claim bit is freed", name)
		}
	}}
	c = New(hook, Config{Block: 4, Slots: workers, MaxCached: capacity})
	own := make([]atomic.Int32, c.NameBound())
	grant := func(n int) bool {
		for !own[n].CompareAndSwap(0, 1) {
			switch own[n].Load() {
			case 1:
				t.Errorf("name %d granted while held", n)
				return false
			case 2:
				return false
			}
			runtime.Gosched()
		}
		return true
	}
	release := func(p *shm.Proc, n int) {
		own[n].Store(3)
		c.Release(p, n)
		own[n].Store(0)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w's proc s lands on slot s.
			procs := make([]*shm.Proc, workers)
			for s := range procs {
				procs[s] = proc(s + workers*w)
			}
			r := procs[0].Rand()
			var held []int
			target := 0
			for i := range iters {
				p := procs[(w+i/hop)%workers]
				if i%16 == 0 {
					target = r.Intn(capacity / 2)
				}
				if len(held) < target {
					gate.RLock()
					n := c.Acquire(p)
					if n >= 0 && grant(n) {
						held = append(held, n)
					}
					gate.RUnlock()
				} else if len(held) > 0 {
					j := r.Intn(len(held))
					release(p, held[j])
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			}
			for _, n := range held {
				release(procs[0], n)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	domains := c.LeaseDomains()
	pp := proc(workers)
	r := pp.Rand()
	reclaimed := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		name := -1
		for i, start := 0, r.Intn(capacity); i < capacity; i++ {
			if n := (start + i) % capacity; c.parked(n) {
				name = n
				break
			}
		}
		if name < 0 || !own[name].CompareAndSwap(0, 2) {
			runtime.Gosched()
			continue
		}
		for _, d := range domains {
			j := name - d.Base
			if j < 0 || j >= d.Stamps.Size() {
				continue
			}
			now := ep.Advance(1)
			if !d.Stamps.BeginReclaim(j, d.Stamps.Load(j), now) {
				t.Fatalf("name %d: suspect mark lost with no other reaper", name)
			}
			d.Reclaim(pp, j)
			d.Stamps.FinishReclaim(j, now, now)
			reclaimed++
		}
		own[name].Store(0)
		gate.Unlock()
	}
	if t.Failed() {
		return
	}
	if reclaimed == 0 || c.moves.Load() == 0 {
		t.Fatalf("storm reclaimed %d names over %d sibling refills: not exercised", reclaimed, c.moves.Load())
	}
	for n := range c.NameBound() {
		if c.parked(n) && !inner.IsHeld(n) {
			t.Fatalf("parked name %d has a clear claim bit", n)
		}
	}
	t.Logf("before flush: inner %d cached %d reclaimed %d moves %d", inner.Held(), c.Cached(), reclaimed, c.moves.Load())
	c.Flush(pp)
	if h, parked := inner.Held(), c.Cached(); h != 0 || parked != 0 {
		t.Fatalf("after flush: inner holds %d, cache parks %d, want 0/0", h, parked)
	}
	t.Logf("%d names reclaimed over %d sibling refills", reclaimed, c.moves.Load())
}

// TestPurgeFindsNameMovedMidSweep stops a purge between two slots and
// moves its name from a slot it has not reached to one it has passed: a
// sibling refill on slot 0 takes slot 2's block while the test holds slot
// 1's mutex. The purge must sweep again and find the name on slot 0. The
// sleep only gives the purge time to pass slot 0; if it has not, it finds
// the name on its first sweep, and if it still held slot 0 when the
// refill tried it, nothing moved and the test skips.
func TestPurgeFindsNameMovedMidSweep(t *testing.T) {
	c, _ := newSharded(256, 1, Config{Block: 4, Slots: 4})
	if n := c.Acquire(proc(2)); n < 0 {
		t.Fatal("slot 2's block lease failed")
	}
	parked := slices.Clone(c.slots[2].names)
	slices.Sort(parked)
	if len(parked) != 3 {
		t.Fatalf("slot 2 parks %v, want 3 names", parked)
	}
	// The move serves the lowest name and parks the rest on slot 0.
	name := parked[1]
	c.slots[1].mu.Lock()
	found := make(chan bool)
	go func() { found <- c.PurgeParked(name) }()
	time.Sleep(20 * time.Millisecond)
	served := c.Acquire(proc(0))
	c.slots[0].mu.Lock()
	moved := slices.Contains(c.slots[0].names, name)
	c.slots[0].mu.Unlock()
	c.slots[1].mu.Unlock()
	if !<-found {
		t.Fatalf("purge missed name %d (moved to slot 0: %v)", name, moved)
	}
	if c.Parked(name) {
		t.Fatalf("name %d still parked after its purge", name)
	}
	if got := c.Cached(); got != 1 {
		t.Fatalf("Cached() = %d after the purge, want 1", got)
	}
	if !moved {
		t.Skipf("no sibling refill ran (served %d): the purge held slot 0", served)
	}
	if served != parked[0] {
		t.Fatalf("sibling refill served %d, want slot 2's lowest %d", served, parked[0])
	}
}

// TestStillSiblings pins the idle watch without racing a second
// goroutine: a sibling whose count differs from the count first read has
// moved, so the watch returns false at once and marks it busy; a watch
// with no sibling holding names returns false at once; and a watch whose
// siblings all hold still reports true only after busyWindow. A still
// sibling then gives its whole stock, more than one block, lowest on top.
func TestStillSiblings(t *testing.T) {
	c, _ := newSharded(1024, 1, Config{Block: 8, Slots: 4})
	for i, n := range []int64{0, 5, 7, 0} {
		c.slots[i].parked.Store(n)
	}
	// Siblings of slot 0 are slots 1, 2 and 3, in that order.
	counts := []int64{5, 6, 0} // slot 2 moved from 6 to 7
	start := time.Now()
	if !c.stillSiblings(0, counts) {
		t.Fatal("slot 1 held still, but the watch found no idle sibling")
	}
	if d := time.Since(start); d < busyWindow {
		t.Fatalf("watch reported an idle sibling after %v, want at least %v", d, busyWindow)
	}
	if want := []int64{5, -1, 0}; !slices.Equal(counts, want) {
		t.Fatalf("counts after the watch %v, want %v (the moved sibling marked busy)", counts, want)
	}

	counts = []int64{4, 6, 0} // both siblings with names moved
	start = time.Now()
	if c.stillSiblings(0, counts) {
		t.Fatal("every sibling with names moved, but the watch found an idle one")
	}
	if d := time.Since(start); d >= busyWindow {
		t.Logf("watch among moved siblings took %v (host stall?)", d)
	}
	if want := []int64{-1, -1, 0}; !slices.Equal(counts, want) {
		t.Fatalf("counts after the watch %v, want %v", counts, want)
	}

	if c.stillSiblings(0, []int64{0, 0, 0}) {
		t.Fatal("no sibling had names, but the watch found an idle one")
	}

	// A sibling that holds still gives all its names, though they are more
	// than one block, and the taker serves them lowest first.
	c2, _ := newSharded(1024, 1, Config{Block: 8, Slots: 3})
	p0, p1 := proc(0), proc(1)
	var held []int
	for range 16 {
		held = append(held, c2.Acquire(p1))
	}
	released := held[3:]
	for _, n := range released { // ascending, so the highest lands on top
		c2.Release(p1, n)
	}
	s := &c2.slots[0]
	s.mu.Lock()
	ok := c2.fromSibling(p0, s)
	got := len(s.names)
	var served []int
	for n := c2.pop(p0, s); n >= 0; n = c2.pop(p0, s) {
		served = append(served, n)
	}
	s.mu.Unlock()
	if !ok || got != len(released) || c2.slots[1].parked.Load() != 0 {
		t.Fatalf("fromSibling took %d names (ok %v), slot 1 keeps %d; want all %d of slot 1's",
			got, ok, c2.slots[1].parked.Load(), len(released))
	}
	slices.Sort(released)
	if !slices.Equal(served, released) {
		t.Fatalf("slot 0 served the sibling's names as %v, want lowest first %v", served, released)
	}
}
