package longlived

import (
	"testing"

	"shmrename/internal/prng"
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

// TestWordProbesStayTightUnderChurn: with word probes drawn from the lowest
// open words, 1000 holders churned on a 4096-capacity arena keep every
// issued name within 1.25 × holders. A uniform draw over each level's
// words spreads holders across the partly filled top level and reads
// about 1.93 here.
func TestWordProbesStayTightUnderChurn(t *testing.T) {
	const holders, pairs = 1000, 50000
	for _, a := range []Arena{
		NewLevel(4096, LevelConfig{WordScan: true, Padded: true, Label: "t-tight-l"}),
		NewElastic(4096, ElasticConfig{WordScan: true, Padded: true, Label: "t-tight-e"}),
	} {
		if span := float64(churnVictims(t, a, holders, pairs)+1) / holders; span > 1.25 {
			t.Errorf("%s: max issued name + 1 is %.3f × holders, want <= 1.25", a.Label(), span)
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
