package sharded

import (
	"slices"
	"testing"
)

// TestAcquireBlockFirstFit: a block leased by a proc whose home stripe is
// 1 takes stripe 0's lowest free words, a block larger than stripe 0's room
// continues in stripe 1, and the short stripe is hinted full.
func TestAcquireBlockFirstFit(t *testing.T) {
	a := New(256, Config{Shards: 2, MaxPasses: 2, WordScan: true, Label: "ts-block"})
	t.Run(a.Label(), func(t *testing.T) {
		p := nativeProc(1)
		if h := a.home(p); h != 1 {
			t.Fatalf("proc 1 has home stripe %d, want 1", h)
		}
		seen := make(map[int]bool)
		take := func(k int) []int {
			t.Helper()
			got := a.AcquireBlock(p, k, nil)
			for _, n := range got {
				if seen[n] {
					t.Fatalf("name %d leased twice", n)
				}
				seen[n] = true
			}
			return got
		}
		first := take(10)
		if !slices.Equal(first, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
			t.Fatalf("first block %v, want the lowest names 0..9", first)
		}
		k := a.ShardBase(1) // more than stripe 0 has left
		spill := take(k)
		if len(spill) != k {
			t.Fatalf("block of %d got %d", k, len(spill))
		}
		in0 := 0
		for _, n := range spill {
			if n < a.ShardBase(1) {
				in0++
			}
		}
		if in0 != a.ShardBase(1)-10 {
			t.Fatalf("block took %d names of stripe 0, want its %d free ones", in0, a.ShardBase(1)-10)
		}
		if rest := a.Shard(0).AcquireN(p, 1, nil); len(rest) != 0 {
			t.Fatal("block moved on to stripe 1 while stripe 0 still had room")
		}
		if !a.ShardOccupied(0) {
			t.Fatal("stripe 0 ran short of the block but is not hinted full")
		}
		if a.ShardOccupied(1) {
			t.Fatal("stripe 1 served its whole share but is hinted full")
		}
	})
}

// TestAcquireBlockSkipsHintedStripe: a stripe wrongly hinted full is
// skipped by the first-fit sweep (it may come back short), while Acquire's
// sweep still serves from it.
func TestAcquireBlockSkipsHintedStripe(t *testing.T) {
	a := New(256, Config{Shards: 2, MaxPasses: 2, WordScan: true, Label: "ts-block-hint"})
	p := nativeProc(0)
	a.occupied.Set(0) // stripe 0 is empty: the hint is stale
	got := a.AcquireBlock(p, a.ShardBase(1), nil)
	if len(got) != a.ShardBase(1) {
		t.Fatalf("block got %d names, want all %d of stripe 1", len(got), a.ShardBase(1))
	}
	for _, n := range got {
		if n < a.ShardBase(1) {
			t.Fatalf("block name %d lies in the stripe hinted full", n)
		}
	}
	if more := a.AcquireBlock(p, 1, nil); len(more) != 0 {
		t.Fatalf("sweep over a full stripe and a hinted one served %v", more)
	}
	if n := a.Acquire(p); n < 0 || n >= a.ShardBase(1) {
		t.Fatalf("Acquire returned %d, want a name of the wrongly hinted stripe 0", n)
	}
}
