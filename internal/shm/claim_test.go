package shm

import (
	"math/bits"
	"sync"
	"testing"

	"shmrename/internal/prng"
)

func claimProc(id int) *Proc {
	return NewProc(id, prng.NewStream(7, id), nil, 0)
}

func TestClaimFirstFreeOneStepPerClaim(t *testing.T) {
	s := NewNameSpace("t-cff", 130) // two full words + one 2-bit partial
	p := claimProc(0)
	for want := 0; want < 130; want++ {
		before := p.Steps()
		got := s.ClaimFirstFree(p, want>>6)
		if got != want {
			t.Fatalf("claim %d: got name %d", want, got)
		}
		if steps := p.Steps() - before; steps != 1 {
			t.Fatalf("claim %d cost %d steps, want 1", want, steps)
		}
	}
	for w := 0; w < s.Words(); w++ {
		if got := s.ClaimFirstFree(p, w); got != -1 {
			t.Fatalf("full word %d yielded %d", w, got)
		}
		if !s.WordSaturated(w) {
			t.Fatalf("word %d not hinted saturated after observed full", w)
		}
	}
	if got := s.CountClaimed(); got != 130 {
		t.Fatalf("claimed %d, want 130", got)
	}
	// A release re-opens the word and drops the hint.
	s.Free(p, 64)
	if s.WordSaturated(1) {
		t.Fatal("word 1 still hinted saturated after free")
	}
	if got := s.ClaimFirstFree(p, 1); got != 64 {
		t.Fatalf("reclaim got %d, want 64", got)
	}
}

// TestHintBitsFull pins the level-granular summary: Full holds exactly when
// every tracked bit is set, whatever the last word's fill, and one Clear
// (or a Reset) reopens it. Bits beyond n never count.
func TestHintBitsFull(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		h := NewHintBits(n)
		if h.Full() {
			t.Fatalf("n=%d: fresh hints report full", n)
		}
		// Every bit but the last one set: a partial last word is not full.
		for i := 0; i < n-1; i++ {
			h.Set(i)
		}
		if h.Full() {
			t.Fatalf("n=%d: full with bit %d clear", n, n-1)
		}
		h.Set(n - 1)
		if !h.Full() {
			t.Fatalf("n=%d: not full with every bit set one by one", n)
		}
		// One Clear anywhere reopens the set; the first word covers the
		// multi-word case where the last word alone still reads full.
		for _, i := range []int{0, n / 2, n - 1} {
			h.Clear(i)
			if h.Full() {
				t.Fatalf("n=%d: still full after Clear(%d)", n, i)
			}
			h.Set(i)
		}
		h.Reset()
		if h.Full() {
			t.Fatalf("n=%d: full after Reset", n)
		}
		h.SetAll()
		if !h.Full() {
			t.Fatalf("n=%d: not full after SetAll", n)
		}
		h.Clear(n - 1)
		if h.Full() {
			t.Fatalf("n=%d: full after SetAll then Clear(%d)", n, n-1)
		}
	}
}

func TestClaimUpTo(t *testing.T) {
	s := NewNameSpace("t-cut", 64)
	p := claimProc(0)
	before := p.Steps()
	won := s.ClaimUpTo(p, 0, 10)
	if p.Steps()-before != 1 {
		t.Fatalf("batch claim cost %d steps, want 1", p.Steps()-before)
	}
	if won != 1<<10-1 {
		t.Fatalf("won %b, want the 10 lowest bits", won)
	}
	// The next batch lands above the first; over-asking caps at the word.
	if won = s.ClaimUpTo(p, 0, 100); bits.OnesCount64(won) != 54 {
		t.Fatalf("second batch won %d bits, want the 54 remaining", bits.OnesCount64(won))
	}
	if s.ClaimUpTo(p, 0, 1) != 0 {
		t.Fatal("claim on a full word won bits")
	}
	if s.ClaimUpTo(p, 0, 0) != 0 {
		t.Fatal("k=0 claimed bits")
	}
}

func TestClaimMaskRespectsMaskAndPartialWord(t *testing.T) {
	s := NewNameSpace("t-cm", 70) // word 1 has 6 valid bits
	p := claimProc(0)
	mask := uint64(0b1010_1010)
	if won := s.ClaimMask(p, 0, mask); won != mask {
		t.Fatalf("won %b, want full mask %b", won, mask)
	}
	// Re-claiming the same mask wins nothing and must not clobber.
	if won := s.ClaimMask(p, 0, mask); won != 0 {
		t.Fatalf("reclaim won %b", won)
	}
	if got := s.CountClaimed(); got != 4 {
		t.Fatalf("claimed %d, want 4", got)
	}
	// Out-of-space bits of the partial word are silently invalid.
	if won := s.ClaimMask(p, 1, ^uint64(0)); bits.OnesCount64(won) != 6 {
		t.Fatalf("partial word won %d bits, want 6", bits.OnesCount64(won))
	}
	if got := s.CountClaimed(); got != 10 {
		t.Fatalf("claimed %d, want 10", got)
	}
}

func TestFreeMaskRoundTrip(t *testing.T) {
	s := NewNameSpace("t-fm", 64)
	p := claimProc(0)
	a := s.ClaimMask(p, 0, 0x00ff)
	b := s.ClaimMask(p, 0, 0xff00)
	if a != 0x00ff || b != 0xff00 {
		t.Fatalf("claims: %x %x", a, b)
	}
	before := p.Steps()
	s.FreeMask(p, 0, a)
	if p.Steps()-before != 1 {
		t.Fatalf("batch free cost %d steps, want 1", p.Steps()-before)
	}
	if got := s.CountClaimed(); got != 8 {
		t.Fatalf("claimed %d after partial free, want 8", got)
	}
	for i := 8; i < 16; i++ {
		if !s.Probe(i) {
			t.Fatalf("foreign bit %d cleared by FreeMask", i)
		}
	}
	// Freeing already-free bits is a no-op.
	s.FreeMask(p, 0, a)
	if got := s.CountClaimed(); got != 8 {
		t.Fatalf("claimed %d after idempotent free, want 8", got)
	}
}

func TestClaimFirstFreeRange(t *testing.T) {
	s := NewNameSpace("t-cfr", 256)
	p := claimProc(0)
	// A τ-style block that straddles the word 1 / word 2 boundary.
	lo, hi := 100, 140
	got := make(map[int]bool)
	for {
		before := p.Steps()
		n := s.ClaimFirstFreeRange(p, lo, hi)
		if steps := p.Steps() - before; steps > 2 {
			t.Fatalf("range claim cost %d steps, want <= 2 words", steps)
		}
		if n == -1 {
			break
		}
		if n < lo || n >= hi {
			t.Fatalf("claimed %d outside [%d,%d)", n, lo, hi)
		}
		if got[n] {
			t.Fatalf("name %d claimed twice", n)
		}
		got[n] = true
	}
	if len(got) != hi-lo {
		t.Fatalf("claimed %d names, want %d", len(got), hi-lo)
	}
	// Nothing outside the range was touched.
	if c := s.CountClaimed(); c != hi-lo {
		t.Fatalf("space holds %d claims, want %d", c, hi-lo)
	}
	if s.Probe(lo-1) || s.Probe(hi) {
		t.Fatal("range claim leaked outside its bounds")
	}
}

func TestWordOpsOnPaddedLayout(t *testing.T) {
	s := NewNameSpacePadded("t-pad", 200)
	p := claimProc(0)
	seen := make(map[int]bool)
	for w := 0; w < s.Words(); w++ {
		for {
			n := s.ClaimFirstFree(p, w)
			if n == -1 {
				break
			}
			if seen[n] {
				t.Fatalf("name %d claimed twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != 200 || s.CountClaimed() != 200 {
		t.Fatalf("claimed %d/%d, want 200", len(seen), s.CountClaimed())
	}
}

// TestClaimMaskConcurrentNoClobber is the race-storm half of the fuzz
// contract: goroutines batch-claim and batch-free disjoint interleaved masks
// of the same word; no claim may ever win a bit outside its mask and the
// final population must match the survivors exactly.
func TestClaimMaskConcurrentNoClobber(t *testing.T) {
	const gor = 8
	s := NewNameSpace("t-storm", 64)
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := claimProc(g)
			// Goroutine g owns the bits i with i % gor == g.
			mine := uint64(0)
			for i := g; i < 64; i += gor {
				mine |= 1 << i
			}
			for round := 0; round < 500; round++ {
				won := s.ClaimMask(p, 0, mine)
				if won&^mine != 0 {
					t.Errorf("g%d won foreign bits %x", g, won&^mine)
					return
				}
				if won != mine {
					t.Errorf("g%d won %x, want its whole free mask %x", g, won, mine)
					return
				}
				s.FreeMask(p, 0, won)
			}
		}(g)
	}
	wg.Wait()
	if got := s.CountClaimed(); got != 0 {
		t.Fatalf("%d bits held after storm", got)
	}
}
