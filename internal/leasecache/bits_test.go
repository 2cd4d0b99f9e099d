package leasecache

import (
	"sync"
	"sync/atomic"
	"testing"

	"shmrename/internal/longlived"
)

// TestCachedBitOps pins the setBit/clearBit contract that mark/unmark
// build their conservation panics on — set/clear the bit, return the
// word's previous value — on whichever implementation the toolchain
// selected (the Or/And intrinsics on go1.25+, the load+CAS loop before;
// Go 1.24.0's amd64 lowering of the value-returning intrinsics clobbered
// a live register, which is why the two files exist).
func TestCachedBitOps(t *testing.T) {
	var w atomic.Uint64
	const a, b = uint64(1) << 3, uint64(1) << 41
	if old := setBit(&w, a); old != 0 {
		t.Fatalf("setBit on empty word returned old=%#x, want 0", old)
	}
	if old := setBit(&w, b); old != a {
		t.Fatalf("setBit returned old=%#x, want %#x", old, a)
	}
	// Idempotent set: the bit stays, the old value exposes it was set.
	if old := setBit(&w, a); old&a == 0 {
		t.Fatalf("re-setBit returned old=%#x without the bit", old)
	}
	if w.Load() != a|b {
		t.Fatalf("word %#x after sets, want %#x", w.Load(), a|b)
	}
	if old := clearBit(&w, a); old&a == 0 {
		t.Fatalf("clearBit returned old=%#x without the bit", old)
	}
	if old := clearBit(&w, a); old&a != 0 {
		t.Fatalf("re-clearBit returned old=%#x with the bit still reported", old)
	}
	if w.Load() != b {
		t.Fatalf("word %#x after clears, want %#x", w.Load(), b)
	}
	// Concurrent flips on disjoint bits of one word never lose an update —
	// the exact pattern mark/unmark runs on the shared cached array.
	var wg sync.WaitGroup
	var word atomic.Uint64
	for bit := 0; bit < 64; bit++ {
		wg.Add(1)
		go func(mask uint64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if setBit(&word, mask)&mask != 0 {
					t.Errorf("bit %#x observed set by its only setter", mask)
					return
				}
				if clearBit(&word, mask)&mask == 0 {
					t.Errorf("bit %#x observed clear by its only clearer", mask)
					return
				}
			}
		}(uint64(1) << bit)
	}
	wg.Wait()
	if word.Load() != 0 {
		t.Fatalf("word %#x after balanced flips, want 0", word.Load())
	}
}

// TestMarkUnmarkThroughCache drives mark/unmark through the public
// surface: a full park/grant churn over several words of the cached
// array, ending with every bit clear — the regression net for the
// toolchain-dependent bit-flip implementations behind them.
func TestMarkUnmarkThroughCache(t *testing.T) {
	inner := longlived.NewLevel(256, longlived.LevelConfig{
		MaxPasses: 8, WordScan: true, Label: "t-bits",
	})
	c := New(inner, Config{Block: 32, Slots: 2, MaxCached: 64})
	p := proc(0)
	for round := 0; round < 50; round++ {
		var names []int
		for i := 0; i < 96; i++ {
			n := c.Acquire(p)
			if n < 0 {
				t.Fatalf("round %d: acquire %d failed", round, i)
			}
			names = append(names, n)
		}
		for _, n := range names {
			c.Release(p, n)
		}
	}
	c.Flush(p)
	if got := c.Cached(); got != 0 {
		t.Fatalf("%d names still marked cached after flush", got)
	}
	for w := 0; w < (c.NameBound()+63)/64; w++ {
		if v := c.cached[c.cachedIndex(w)].Load(); v != 0 {
			t.Fatalf("cached word %d = %#x after flush, want 0", w, v)
		}
	}
	if h := inner.Held(); h != 0 {
		t.Fatalf("inner arena holds %d names after flush", h)
	}
}
