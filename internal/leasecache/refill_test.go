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
// serves what is free and returns, or AcquireN, which may spin — no slot
// mutex may stay locked, or Flush blocks forever.
func TestStarvedRefillNeverWedgesFlush(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner func(longlived.Arena) longlived.Arena
	}{
		{"block", func(a longlived.Arena) longlived.Arena { return a }},
		{"acquire-n", func(a longlived.Arena) longlived.Arena { return noBlock{a} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := sharded.New(96, sharded.Config{Shards: 4, WordScan: true, Padded: true})
			c := New(tc.inner(inner), Config{Block: 64, Slots: 2})
			if n := c.Acquire(proc(0)); n < 0 {
				t.Fatal("first lease failed")
			}
			// Slot 0 parks 63 names, so only 32 of the 96 are free for the
			// 64-name refill of slot 1.
			starved := shm.NewProc(1, prng.NewStream(7, 1), nil, 1<<16)
			unwound := make(chan any, 1)
			name := -1
			go func() {
				defer func() { unwound <- recover() }()
				name = c.Acquire(starved)
			}()
			switch r := <-unwound; r.(type) {
			case nil:
				if tc.name == "block" && name < 0 {
					t.Fatal("first-fit refill served nothing with 32 names free")
				}
			case shm.StepLimit:
				if tc.name == "block" {
					t.Error("first-fit refill spun into the step limit")
				}
			default:
				panic(r)
			}
			flushed := make(chan int, 1)
			go func() { flushed <- c.Flush(proc(2)) }()
			select {
			case n := <-flushed:
				if n < 63 {
					t.Fatalf("flush returned %d names, want slot 0's 63 at least", n)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Flush blocked: a refill left its slot mutex locked")
			}
		})
	}
}
