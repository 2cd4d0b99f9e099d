package longlived

import (
	"testing"

	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// churnVictims fills a to holders names from one proc, then makes pairs
// release/acquire pairs, each releasing a randomly chosen holder. It
// returns the largest name issued over the whole run.
func churnVictims(t *testing.T, a Arena, holders, pairs int) int {
	t.Helper()
	p := nativeProc(0)
	r := prng.New(17)
	held := make([]int, 0, holders)
	maxName := -1
	acquire := func() int {
		n := a.Acquire(p)
		if n < 0 {
			t.Fatalf("%s: acquire failed at %d holders", a.Label(), len(held))
		}
		maxName = max(maxName, n)
		return n
	}
	for len(held) < holders {
		held = append(held, acquire())
	}
	for i := 0; i < pairs; i++ {
		v := r.Intn(holders)
		a.Release(p, held[v])
		held[v] = acquire()
	}
	return maxName
}

// TestWordProbesStayTightUnderChurn: one proc loses no claim, so its word
// probes stay first fit, and 1000 holders churned on a 4096-capacity arena
// never receive a name of 1000 or more: every acquire takes the lowest free
// name. The 4-word probe window read 1.17 × holders here, and a uniform
// draw over each level's words about 1.93.
func TestWordProbesStayTightUnderChurn(t *testing.T) {
	const holders, pairs = 1000, 50000
	for _, a := range []Arena{
		NewLevel(4096, LevelConfig{WordScan: true, Padded: true, Label: "t-tight-l"}),
		NewElastic(4096, ElasticConfig{WordScan: true, Padded: true, Label: "t-tight-e"}),
	} {
		if top := churnVictims(t, a, holders, pairs); top >= holders {
			t.Errorf("%s: issued name %d to %d holders, want every name below %d", a.Label(), top, holders, holders)
		}
	}
}

// TestLostClaimWidensProbes walks the lost-claim bit through its life on
// all four word-probe loops. Per-bit TryClaims fill level 0's one word
// without hinting it, so an acquire's first, narrow probe picks that word
// and loses. The rest of the call draws from the window: level 1's two
// words, where the seed's draw picks the upper one (name 128, not the
// first-fit 64), and the bit stays set. The next acquire starts wide and
// draws the upper word again (129); it loses nothing, so it clears the bit,
// and the acquire after it is first fit (64). Every probe, narrow or wide,
// takes exactly one draw.
func TestLostClaimWidensProbes(t *testing.T) {
	// The window probes of the first two acquires take the generator's
	// second and third draws; a 2-word window takes the upper word when a
	// draw's top two bits are odd. Find a seed where both are.
	seed := uint64(1)
	for ; ; seed++ {
		r := prng.New(seed)
		r.Uint64()
		if r.Uint64()>>62&1 == 1 && r.Uint64()>>62&1 == 1 {
			break
		}
	}
	level := func() (Arena, *shm.NameSpace) {
		a := NewLevel(4096, LevelConfig{WordScan: true, Label: "t-lost-l"})
		return a, a.levels[0]
	}
	elastic := func() (Arena, *shm.NameSpace) {
		a := NewElastic(4096, ElasticConfig{WordScan: true, MinCapacity: 192, Label: "t-lost-e"})
		return a, a.levels[0].Load().space
	}
	for _, tc := range []struct {
		name  string
		mk    func() (Arena, *shm.NameSpace)
		batch bool
	}{
		{"level/Acquire", level, false},
		{"level/AcquireN", level, true},
		{"elastic/Acquire", elastic, false},
		{"elastic/AcquireN", elastic, true},
	} {
		a, l0 := tc.mk()
		q := nativeProc(1)
		for i := 0; i < 64; i++ {
			l0.TryClaim(q, i)
		}
		p := shm.NewProc(0, prng.New(seed), nil, 0)
		acquire := func() int {
			if tc.batch {
				return a.AcquireN(p, 1, nil)[0]
			}
			return a.Acquire(p)
		}
		for i, want := range []struct {
			name int
			lost bool
		}{{128, true}, {129, false}, {64, false}} {
			if got := acquire(); got != want.name || p.LostClaim() != want.lost {
				t.Fatalf("%s: acquire %d got name %d, lost-claim bit %v; want %d, %v",
					tc.name, i+1, got, p.LostClaim(), want.name, want.lost)
			}
		}
		r := prng.New(seed)
		for i := 0; i < 4; i++ {
			r.Uint64()
		}
		if *p.Rand() != *r {
			t.Fatalf("%s: the three acquires did not take exactly one draw per probe (4)", tc.name)
		}
	}
}

// TestElasticGrownLevelStaysUnclaimed guards against a probe window that
// runs over a contiguous word range instead of over open words. Filling an
// elastic arena to 1500 holders grows its 2048-name level (the grow trips
// at 75% of the 1984 names below it), but those lower levels keep room for
// every holder, so churn must never claim in the grown level: its bitmap
// stays unallocated. A contiguous window above the lowest open word lands
// every probe on hinted-full words often enough to fall through, raise the
// floor hint into the grown level and make its padded bitmap resident.
func TestElasticGrownLevelStaysUnclaimed(t *testing.T) {
	a := NewElastic(4096, ElasticConfig{WordScan: true, Padded: true, Label: "t-grown"})
	churnVictims(t, a, 1500, 20000)
	act, _ := a.Levels()
	top := a.levels[act-1].Load()
	if top.size != 2048 {
		t.Fatalf("top resident level has %d names, want the grown 2048-name level", top.size)
	}
	if got, hints := top.space.FootprintBytes(), (top.space.Words()+63)/64*8; got != hints {
		t.Fatalf("grown level holds %d bytes, want its %d-byte hints only: a claim reached it", got, hints)
	}
}
