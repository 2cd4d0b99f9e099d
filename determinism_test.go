package shmrename

// Golden determinism test: the scheduler refactor (interned SpaceIDs,
// packed bitmaps, coroutine runner) must not change which names any process
// acquires for a fixed (seed, schedule). The arrays below were recorded
// from the pre-refactor channel-based simulator at the seed commit; the
// current simulator must reproduce them bit for bit.

import (
	"fmt"
	"testing"
	"time"

	"shmrename/internal/core"
	"shmrename/internal/sched"
)

var goldenNames = map[string][]int{
	"loose-fifo":   {28, 13, 45, 50, 51, 11, 10, 59, 40, 18, 49, 34, 2, 19, 8, 47, 43, 17, 36, 26, 61, 4, 46, 27, 58, 33, 5, 56, 24, 15, 55, 39, 23, 38, 63, -1, 3, 1, 9, 53, 42, 48, 62, 35, 21, 30, 37, 12, 20, 0, -1, 44, 57, 25, 29, 41, 22, 6, -1, 31, 7, 54, 14, 52},
	"loose-rr":     {28, 13, 45, 50, 51, 11, 10, 59, 40, 18, 49, 34, 2, 19, 8, 47, 43, 17, 36, 26, 61, 4, 46, 27, 58, 33, 5, 56, 24, 15, 55, 39, 23, 38, 63, -1, 3, 1, 9, 53, 42, 48, 62, 35, 21, 30, 37, 12, 20, 0, -1, 44, 57, 25, 29, 41, 22, 6, -1, 31, 7, 54, 14, 52},
	"loose-random": {28, 8, 38, 50, 51, 11, 10, 55, 40, 4, 49, 16, 2, 21, 34, 6, 58, 17, 36, 26, 61, 18, 46, 27, 13, 33, 5, 56, 24, 15, 59, 39, 23, 12, 63, -1, -1, 31, 9, 19, 32, 48, 62, 29, -1, 43, 37, 42, 35, 1, 7, 44, 57, 25, 45, 41, 22, 53, 47, 30, 3, 54, 14, 52},
	"tight-fifo":   {12, 13, 0, 55, 41, 6, 14, 45, 35, 1, 2, 57, 49, 24, 30, 7, 50, 15, 53, 62, 58, 59, 8, 9, 25, 10, 51, 26, 11, 27, 48, 52, 18, 36, 46, 19, 47, 20, 37, 31, 21, 16, 54, 61, 60, 38, 56, 32, 33, 42, 17, 39, 63, 3, 28, 43, 29, 4, 34, 22, 40, 44, 23, 5},
	"tight-rr":     {12, 13, 0, 24, 6, 7, 14, 25, 8, 1, 2, 15, 3, 26, 30, 9, 16, 17, 27, 18, 19, 50, 10, 11, 28, 44, 35, 29, 48, 38, 62, 51, 20, 36, 21, 22, 31, 45, 39, 32, 23, 58, 33, 52, 4, 40, 41, 53, 46, 47, 42, 37, 55, 5, 49, 43, 59, 60, 34, 56, 54, 61, 57, 63},
}

func namesOf(res []sched.Result) []int {
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.Name
	}
	return out
}

func checkGolden(t *testing.T, key string, res []sched.Result) {
	t.Helper()
	got := namesOf(res)
	want := goldenNames[key]
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: process %d got name %d, want golden %d", key, i, got[i], want[i])
		}
	}
}

func TestGoldenDeterminismLooseRounds(t *testing.T) {
	inst := core.NewLooseRounds(64, core.RoundsConfig{Ell: 2})
	res := sched.Run(sched.Config{N: 64, Seed: 42, Fast: sched.FastFIFO, Body: inst.Body})
	checkGolden(t, "loose-fifo", res)

	inst = core.NewLooseRounds(64, core.RoundsConfig{Ell: 2})
	res = sched.Run(sched.Config{N: 64, Seed: 42, Policy: sched.RoundRobin(),
		Body: inst.Body, Spaces: inst.Probeables()})
	checkGolden(t, "loose-rr", res)

	inst = core.NewLooseRounds(64, core.RoundsConfig{Ell: 2})
	res = sched.Run(sched.Config{N: 64, Seed: 42, Fast: sched.FastRandom, Body: inst.Body})
	checkGolden(t, "loose-random", res)
}

func TestGoldenDeterminismTight(t *testing.T) {
	inst := core.NewTight(64, core.TightConfig{SelfClocked: true})
	res := sched.Run(sched.Config{N: 64, Seed: 7, Fast: sched.FastFIFO, Body: inst.Body})
	checkGolden(t, "tight-fifo", res)

	// Externally clocked round-robin: exercises the AfterStep ordering of
	// the policy path against the same golden.
	inst = core.NewTight(64, core.TightConfig{})
	res = sched.Run(sched.Config{N: 64, Seed: 7, Policy: sched.RoundRobin(),
		Body: inst.Body, AfterStep: inst.Clock(), Spaces: inst.Probeables()})
	checkGolden(t, "tight-rr", res)
}

// goldenMaxSteps pins sched.MaxSteps, the most shared-memory steps any one
// process took, for the paper's two step-complexity claims under FastFIFO
// at seeds 1, 2 and 3: E2 is Theorem 5's tight renaming (O(log n) steps
// w.h.p.), E5 is Corollary 7's loose renaming with ℓ = 2. The seed-3 E2
// run at n = 4096 shows the w.h.p. tail: its slowest process paid 92
// steps, twice the seed-1 run's 46.
var goldenMaxSteps = map[string][3]int64{
	"E2/n=1024": {35, 36, 42},
	"E2/n=4096": {46, 51, 92},
	"E5/n=1024": {33, 33, 32},
	"E5/n=4096": {33, 33, 33},
}

func TestGoldenMaxSteps(t *testing.T) {
	workloads := map[string]func(n int) core.Instance{
		"E2": func(n int) core.Instance { return core.NewTight(n, core.TightConfig{SelfClocked: true}) },
		"E5": func(n int) core.Instance { return core.NewCorollary7(n, core.RoundsConfig{Ell: 2}, nil) },
	}
	for exp, mk := range workloads {
		for _, n := range []int{1 << 10, 1 << 12} {
			key := fmt.Sprintf("%s/n=%d", exp, n)
			var got [3]int64
			for i := range got {
				inst := mk(n)
				res := sched.Run(sched.Config{N: n, Seed: uint64(i + 1), Fast: sched.FastFIFO, Body: inst.Body})
				if err := sched.VerifyUnique(res, inst.M()); err != nil {
					t.Fatalf("%s seed %d: %v", key, i+1, err)
				}
				got[i] = sched.MaxSteps(res)
			}
			if want := goldenMaxSteps[key]; got != want {
				t.Errorf("%s: max steps per seed %v, want golden %v", key, got, want)
			}
		}
	}
}

// TestPerfSmoke is the benchmark guard of tier-1: one simulated E2 instance
// at n = 2^14 must finish far inside a generous wall-clock ceiling. A gross
// simulator regression (e.g. an O(n) copy creeping back into the grant
// loop) blows the ceiling and fails tests instead of only showing up in
// benchmarks. The post-refactor run takes ~0.15s on a 2015-class core; the
// ceiling leaves 40x headroom for slow CI machines.
func TestPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke needs a full E2 run")
	}
	const n = 1 << 14
	// The ceiling gates the uninstrumented hot path; race instrumentation
	// slows the simulator several-fold without telling us anything about a
	// regression, so the race-job budget is proportionally wider.
	ceiling := 6 * time.Second
	if raceDetector {
		ceiling *= 4
	}
	start := time.Now()
	inst := core.NewTight(n, core.TightConfig{SelfClocked: true})
	res := sched.Run(sched.Config{N: n, Seed: 1, Fast: sched.FastFIFO, Body: inst.Body})
	elapsed := time.Since(start)
	if err := sched.VerifyUnique(res, n); err != nil {
		t.Fatal(err)
	}
	if got := sched.CountStatus(res, sched.Named); got != n {
		t.Fatalf("%d of %d processes named", got, n)
	}
	if elapsed > ceiling {
		t.Fatalf("E2 n=%d took %v, ceiling %v: simulator hot path regressed", n, elapsed, ceiling)
	}
	t.Logf("E2 n=%d in %v (ceiling %v)", n, elapsed, ceiling)
}
