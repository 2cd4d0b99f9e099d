package leasecache

import (
	"math/bits"
	"sync"
	"testing"
	"unsafe"
)

// TestParkedCountsAfterChurn stops a concurrent churn with names still
// held and parked, then checks the per-slot parked counts against the
// state they summarize: Cached equals the names parked across the slot
// stacks and the set cached bits, Held equals the names the workers still
// hold, and Held + Cached equals the backend's claims. Run it at -cpu
// 1,2,4: the counts are only written by slot-mutex holders, so real
// parallelism is what could make them drift.
func TestParkedCountsAfterChurn(t *testing.T) {
	c, inner := newSharded(1024, 2, Config{Block: 16, Slots: 4, MaxCached: 32})
	const workers = 8
	kept := make([][]int, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := proc(id)
			r := p.Rand()
			var held []int
			for range 2000 {
				if len(held) > 0 && (len(held) >= 40 || r.Intn(2) == 0) {
					i := r.Intn(len(held))
					c.Release(p, held[i])
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
					continue
				}
				if n := c.Acquire(p); n >= 0 {
					held = append(held, n)
				}
			}
			// End on releases, so names stay parked however the last
			// refills left the stacks: sibling refills can drain them.
			for _, n := range held[len(held)/2:] {
				c.Release(p, n)
			}
			kept[id] = held[:len(held)/2]
		}(g)
	}
	wg.Wait()

	stacked := 0
	for i := range c.slots {
		stacked += len(c.slots[i].names)
	}
	bitsSet := 0
	for i := range c.cached {
		bitsSet += bits.OnesCount64(c.cached[i].Load())
	}
	clients := 0
	for _, h := range kept {
		clients += len(h)
	}
	if stacked == 0 {
		t.Fatal("churn left no name parked: the counts were not exercised")
	}
	if got := c.Cached(); got != stacked || got != bitsSet {
		t.Fatalf("Cached() = %d, slot stacks hold %d, cached bits set %d", got, stacked, bitsSet)
	}
	if got := c.Held(); got != clients {
		t.Fatalf("Held() = %d, workers hold %d", got, clients)
	}
	if got, claims := c.Held()+c.Cached(), inner.Held(); got != claims {
		t.Fatalf("Held()+Cached() = %d, backend claims %d", got, claims)
	}
}

// TestCachedIndexLayout pins the cached-bit layout: for every name bound
// the word mapping is a bijection into the array, the array stays within
// twice the packed words rounded up to whole cache lines, and adjacent
// words — the blocks first-fit refills hand to different workers — sit on
// different 64-byte lines whenever the array spans more than one.
func TestCachedIndexLayout(t *testing.T) {
	for _, bound := range []int{1, 63, 64, 65, 511, 512, 4096, 8064, 3*4096 + 7} {
		c := &Cache{}
		c.layoutCached(bound)
		words := (bound + 63) / 64
		lines := (words + wordsPerLine - 1) / wordsPerLine
		if len(c.cached) < words || len(c.cached) > 2*lines*wordsPerLine {
			t.Errorf("bound %d: %d array words for %d bitmap words", bound, len(c.cached), words)
		}
		seen := make([]bool, len(c.cached))
		for w := range words {
			i := c.cachedIndex(w)
			if i < 0 || i >= len(c.cached) || seen[i] {
				t.Fatalf("bound %d: word %d maps to %d (array %d, taken %v)",
					bound, w, i, len(c.cached), i >= 0 && i < len(seen) && seen[i])
			}
			seen[i] = true
		}
		line := func(w int) uintptr {
			return uintptr(unsafe.Pointer(&c.cached[c.cachedIndex(w)])) / 64
		}
		first := uintptr(unsafe.Pointer(&c.cached[0])) / 64
		last := uintptr(unsafe.Pointer(&c.cached[len(c.cached)-1])) / 64
		if first == last {
			continue
		}
		for w := 0; w+1 < words; w++ {
			if line(w) == line(w+1) {
				t.Fatalf("bound %d: words %d and %d share a cache line", bound, w, w+1)
			}
		}
	}
}
