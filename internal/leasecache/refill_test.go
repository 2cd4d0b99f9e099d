package leasecache

import (
	"testing"
	"time"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/sharded"
	"shmrename/internal/shm"
)

// noBlock hides the inner arena's first-fit AcquireBlock, so the cache
// refills through AcquireN.
type noBlock struct{ longlived.Arena }

// TestStarvedRefillNeverWedgesFlush reproduces the lease-cached storm
// hang: with MaxPasses 0 underneath, a refill that wants more names than
// the other slots left free can spin until its proc's step limit unwinds
// it. Whichever way the cache refills — a first-fit AcquireBlock, which
// serves what is free and returns, or AcquireN, which spins — no slot
// mutex may stay locked, or Flush blocks forever.
func TestStarvedRefillNeverWedgesFlush(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inner   func(longlived.Arena) longlived.Arena
		flushed int
	}{
		// The first-fit refill takes the 32 free names: one served, 31
		// parked for Flush to return.
		{"block", func(a longlived.Arena) longlived.Arena { return a }, 31},
		// AcquireN spins for 64 names with 32 free; the names it claimed
		// before the step limit unwound it never reach a stack.
		{"acquire-n", func(a longlived.Arena) longlived.Arena { return noBlock{a} }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := sharded.New(96, sharded.Config{Shards: 4, WordScan: true, Padded: true})
			c := New(tc.inner(inner), Config{Block: 64, Slots: 2})
			// Slot 0 grants its whole first block, so no sibling has names
			// to give and slot 1's 64-name refill must go to the inner
			// arena, where only 32 of the 96 names are free.
			p0 := proc(0)
			for i := range 64 {
				if n := c.Acquire(p0); n < 0 {
					t.Fatalf("acquire %d of slot 0's block failed", i)
				}
			}
			if got := c.Cached(); got != 0 {
				t.Fatalf("slot 0 parks %d names after granting its block, want 0", got)
			}
			starved := shm.NewProc(1, prng.NewStream(7, 1), nil, 1<<16)
			unwound := make(chan any, 1)
			name := -1
			go func() {
				defer func() { unwound <- recover() }()
				name = c.Acquire(starved)
			}()
			switch r := <-unwound; r.(type) {
			case nil:
				if tc.name == "acquire-n" {
					t.Fatalf("AcquireN refill returned %d instead of spinning into the step limit", name)
				}
				if name < 0 {
					t.Fatal("first-fit refill served nothing with 32 names free")
				}
			case shm.StepLimit:
				if tc.name == "block" {
					t.Fatal("first-fit refill spun into the step limit")
				}
			default:
				panic(r)
			}
			flushed := make(chan int, 1)
			go func() { flushed <- c.Flush(proc(2)) }()
			select {
			case n := <-flushed:
				if n != tc.flushed {
					t.Fatalf("flush returned %d names, want %d", n, tc.flushed)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Flush blocked: a refill left its slot mutex locked")
			}
		})
	}
}
