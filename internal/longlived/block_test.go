package longlived

import (
	"slices"
	"testing"

	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// lowestFree returns the k lowest names the arena does not hold.
func lowestFree(a Arena, k int) []int {
	var out []int
	for n := 0; n < a.NameBound() && len(out) < k; n++ {
		if !a.IsHeld(n) {
			out = append(out, n)
		}
	}
	return out
}

// TestLevelAcquireBlockFirstFit: on both scan engines, AcquireBlock takes
// exactly the lowest free names across level boundaries, whatever holes
// random acquires left, and spends one step per word it claims from.
func TestLevelAcquireBlockFirstFit(t *testing.T) {
	for _, wordScan := range []bool{false, true} {
		a := NewLevel(256, LevelConfig{WordScan: wordScan, MaxPasses: 4, Label: "t-block"})
		t.Run(a.Label(), func(t *testing.T) {
			p := nativeProc(0)
			for i := 0; i < 40; i++ {
				if a.Acquire(p) < 0 {
					t.Fatal("scatter acquire failed")
				}
			}
			for _, k := range []int{1, 30, 100} {
				want := lowestFree(a, k)
				got := a.AcquireBlock(p, k, nil)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("block of %d = %v, want the lowest free names %v", k, got, want)
				}
			}
			// A fresh word-aligned block: one ClaimUpTo step, and the claim
			// that filled the word hinted it, so the next sweep skips it.
			b := NewLevel(256, LevelConfig{WordScan: wordScan, Label: "t-block-steps"})
			if got := b.AcquireBlock(p, 64, nil); len(got) != 64 || got[63] != 63 {
				t.Fatalf("fresh block %v, want names 0..63", got)
			}
			before := p.Steps()
			if got := b.AcquireBlock(p, 3, nil); !slices.Equal(got, []int{64, 65, 66}) {
				t.Fatalf("second block %v, want [64 65 66]", got)
			}
			if steps := p.Steps() - before; steps != 1 {
				t.Fatalf("second block cost %d steps, want 1 (the full word 0 is hinted)", steps)
			}
		})
	}
}

// hookGate runs fn before every step of the proc it gates, then lets the
// step proceed: a deterministic way to land a transition between a claim's
// state check and its CAS.
type hookGate struct{ fn func(op shm.Op) }

func (g hookGate) Await(_ *shm.Proc, op shm.Op) bool {
	g.fn(op)
	return true
}

// TestElasticAcquireBlock: the first-fit sweep takes the lowest free names
// of the active ladder, runs the grow trigger past GrowAt, and bounces a
// mask it won in a level that began draining after the level's state check.
func TestElasticAcquireBlock(t *testing.T) {
	a := NewElastic(512, ElasticConfig{WordScan: true, MaxPasses: 4, Label: "t-eblock"})
	p := nativeProc(0)
	if got := a.AcquireBlock(p, 60, nil); len(got) != 60 || got[0] != 0 || got[59] != 59 {
		t.Fatalf("first block %v, want names 0..59", got)
	}
	// 60 of 64 resident names is past GrowAt 0.75: the block grew the ladder.
	if act, _ := a.Levels(); act != 2 {
		t.Fatalf("%d active levels after a block past GrowAt, want 2", act)
	}
	want := lowestFree(a, 10)
	if got := a.AcquireBlock(p, 10, nil); !slices.Equal(got, want) || got[9] != 69 {
		t.Fatalf("block across the level boundary %v, want %v", got, want)
	}

	// Start draining the top level (1) at the step of the block's claim in
	// it, after the sweep's state check passed: the won mask must bounce.
	top := a.levels[1].Load()
	if got := a.AcquireBlock(p, 58, nil); len(got) != 58 || got[57] != 127 {
		t.Fatalf("filler block %v, want names 70..127", got)
	}
	a.ReleaseN(p, []int{64, 65})
	held := a.Held()
	fired := false
	g := shm.NewProc(1, prng.NewStream(99, 1), hookGate{func(op shm.Op) {
		if op.Space == top.space.ID() && !fired {
			fired = true
			a.startDrain(true)
		}
	}}, 0)
	if got := a.AcquireBlock(g, 2, nil); len(got) != 0 {
		t.Fatalf("block from a draining level granted %v", got)
	}
	if !fired || !a.Draining(64) {
		t.Fatal("the drain never started mid-sweep")
	}
	if h := a.Held(); h != held {
		t.Fatalf("held %d after the bounce, want %d: the won mask was not freed", h, held)
	}
	if top.space.Probe(0) || top.space.Probe(1) {
		t.Fatal("bounced names 64/65 still claimed")
	}
}
