package shm

import (
	"math/bits"
	"slices"
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
		if !s.sat.Get(w) {
			t.Fatalf("word %d not hinted saturated after observed full", w)
		}
	}
	if got := s.CountClaimed(); got != 130 {
		t.Fatalf("claimed %d, want 130", got)
	}
	// A release re-opens the word and drops the hint.
	s.Free(p, 64)
	if s.sat.Get(1) {
		t.Fatal("word 1 still hinted saturated after free")
	}
	if got := s.ClaimFirstFree(p, 1); got != 64 {
		t.Fatalf("reclaim got %d, want 64", got)
	}
}

// TestClaimThatFillsWordSetsHint: the claim that takes a word's last free
// bit sets the word's saturation hint itself, for every claim op and for a
// partial last word, and a release of any of its names clears it again.
func TestClaimThatFillsWordSetsHint(t *testing.T) {
	s := NewNameSpace("t-fillhint", 130) // two full words + one 2-bit partial
	p := claimProc(0)
	if got := s.ClaimUpTo(p, 0, 63); bits.OnesCount64(got) != 63 || s.sat.Get(0) {
		t.Fatalf("claimed %d of word 0, hint %v; want 63 names and no hint", bits.OnesCount64(got), s.sat.Get(0))
	}
	if got := s.ClaimFirstFree(p, 0); got != 63 || !s.sat.Get(0) {
		t.Fatalf("last-bit claim got %d, hint %v; want 63 and the hint set", got, s.sat.Get(0))
	}
	if got := s.ClaimMask(p, 1, ^uint64(0)); got != ^uint64(0) || !s.sat.Get(1) {
		t.Fatalf("whole-word mask claim won %x, hint %v", got, s.sat.Get(1))
	}
	if got := s.ClaimUpTo(p, 2, 64); got != 3 || !s.sat.Get(2) {
		t.Fatalf("partial word claim won %x, hint %v; want 0x3 and the hint set", got, s.sat.Get(2))
	}
	if !s.Saturated() {
		t.Fatal("every word filled, but the space is not hinted saturated")
	}
	steps := p.Steps()
	for w := 0; w < s.Words(); w++ {
		s.Free(p, w<<6+1)
		if s.sat.Get(w) {
			t.Fatalf("word %d still hinted full after a release", w)
		}
	}
	if got := p.Steps() - steps; got != int64(s.Words()) {
		t.Fatalf("releases cost %d steps, want %d", got, s.Words())
	}
}

// TestProbeWordDrawsLowestOpenWords pins the probe window: every draw
// lands on one of the 4 lowest words not hinted saturated, each of them in
// its share of the draws, and a window with fewer open words wraps the
// draws past its end around to its start. The space has 256 words, so its hints span four summary
// words and the windows cross summary-word boundaries.
func TestProbeWordDrawsLowestOpenWords(t *testing.T) {
	for _, tc := range []struct {
		name   string
		open   []int // every other word is hinted saturated; nil: fresh space
		window []int
	}{
		{"fresh", nil, []int{0, 1, 2, 3}},
		{"crosses a summary word", []int{62, 64, 65, 66, 67, 200}, []int{62, 64, 65, 66}},
		{"one open word per summary word", []int{5, 70, 200, 255}, []int{5, 70, 200, 255}},
		{"three open words", []int{10, 130, 250}, []int{10, 130, 250}},
		{"one open word", []int{191}, []int{191}},
	} {
		s := NewNameSpace("t-probe", 16384)
		if tc.open != nil {
			s.SaturateAll()
			for _, w := range tc.open {
				s.sat.Clear(w)
			}
		}
		r := prng.New(3)
		const draws = 4000
		count := make(map[int]int)
		for d := 0; d < draws; d++ {
			count[s.ProbeWord(r, true)]++
		}
		for w := range count {
			if !slices.Contains(tc.window, w) {
				t.Fatalf("%s: drew word %d outside the window %v", tc.name, w, tc.window)
			}
		}
		for i, w := range tc.window {
			// Each of the four draw values takes a quarter of the draws;
			// a window of fewer words wraps the values around it.
			want := 0
			for v := 0; v < 4; v++ {
				if v%len(tc.window) == i {
					want += draws / 4
				}
			}
			if got := count[w]; got < want*8/10 || got > want*12/10 {
				t.Fatalf("%s: word %d drawn %d times of %d, want about %d", tc.name, w, got, draws, want)
			}
		}
	}
}

// TestProbeWordMasksPartialLastWord covers every fill of the last summary
// word: hint bits past the space's last word never count as open, a single
// clear hint anywhere is found, and a fully hinted space yields no word and
// reads Saturated, whatever the last word's fill.
func TestProbeWordMasksPartialLastWord(t *testing.T) {
	r := prng.New(5)
	for _, words := range []int{1, 63, 64, 65, 128, 130} {
		s := NewNameSpace("t-probe-partial", words*64-1) // partial last bitmap word too
		if s.Saturated() {
			t.Fatalf("%d words: a fresh space reads saturated", words)
		}
		// Every hint but the last one set: only the last word is open.
		for w := 0; w < words-1; w++ {
			s.sat.Set(w)
		}
		if got := s.ProbeWord(r, true); got != words-1 || s.Saturated() {
			t.Fatalf("%d words: drew %d (saturated %v), want the one open word %d", words, got, s.Saturated(), words-1)
		}
		s.sat.Set(words - 1)
		if got := s.ProbeWord(r, true); got != -1 || !s.Saturated() {
			t.Fatalf("%d words: drew %d (saturated %v) with every word hinted", words, got, s.Saturated())
		}
		// One clear hint anywhere reopens the space at exactly that word;
		// the first word covers a multi-summary-word space whose last
		// summary word alone still reads full.
		for _, w := range []int{0, words / 2, words - 1} {
			s.sat.Clear(w)
			if got := s.ProbeWord(r, true); got != w || s.Saturated() {
				t.Fatalf("%d words: drew %d (saturated %v), want the reopened word %d", words, got, s.Saturated(), w)
			}
			s.sat.Set(w)
		}
		s.DesaturateAll()
		if got := s.ProbeWord(r, true); got < 0 || got >= min(words, 4) || s.Saturated() {
			t.Fatalf("%d words: drew %d after a reset, want one of the lowest %d", words, got, min(words, 4))
		}
		// SetAll also sets the bits past the last word; they stay closed.
		s.SaturateAll()
		if got := s.ProbeWord(r, true); got != -1 || !s.Saturated() {
			t.Fatalf("%d words: drew %d (saturated %v) after SaturateAll", words, got, s.Saturated())
		}
		s.sat.Clear(words - 1)
		if got := s.ProbeWord(r, true); got != words-1 || s.Saturated() {
			t.Fatalf("%d words: drew %d, want %d after SaturateAll then one clear", words, got, words-1)
		}
		last := (words - 1) >> 6
		if open := s.OpenWords(last); open != 1<<((words-1)&63) {
			t.Fatalf("%d words: summary word %d open mask %x, want only word %d", words, last, open, words-1)
		}
	}
}

// TestProbeWordTakesOneDraw: a draw consumes exactly one Uint64 of the
// generator whatever the window holds, as Intn(words) did before it, and a
// fully hinted space consumes none.
func TestProbeWordTakesOneDraw(t *testing.T) {
	s := NewNameSpace("t-probe-draws", 16384)
	r := prng.New(9)
	for _, open := range [][]int{{0}, {3, 200}, {1, 2, 100}, {7, 8, 9, 10, 11, 255}} {
		s.SaturateAll()
		for _, w := range open {
			s.sat.Clear(w)
		}
		for d := 0; d < 100; d++ {
			want := *r
			want.Uint64()
			s.ProbeWord(r, true)
			if *r != want {
				t.Fatalf("open words %v: a draw did not consume exactly one Uint64", open)
			}
		}
	}
	s.SaturateAll()
	before := *r
	if got := s.ProbeWord(r, true); got != -1 || *r != before {
		t.Fatalf("fully hinted space drew word %d, generator moved %v", got, *r != before)
	}
}

// TestProbeWordNarrowIsFirstFit: a narrow probe returns the lowest word
// not hinted saturated, also past a 64-word summary boundary, and consumes
// exactly one Uint64 as a window draw does. With every word hinted it
// returns -1 and draws nothing, and hint bits past a partial last word
// never read as open.
func TestProbeWordNarrowIsFirstFit(t *testing.T) {
	r := prng.New(11)
	draw := func(s *NameSpace) int {
		t.Helper()
		want := *r
		want.Uint64()
		w := s.ProbeWord(r, false)
		if *r != want {
			t.Fatalf("narrow probe of word %d did not consume exactly one Uint64", w)
		}
		return w
	}
	s := NewNameSpace("t-narrow", 16384) // 256 words: four summary words
	if got := draw(s); got != 0 {
		t.Fatalf("fresh space: drew word %d, want 0", got)
	}
	for _, open := range [][]int{{1, 2, 3}, {63, 64}, {64, 200}, {130, 131}, {255}} {
		s.SaturateAll()
		for _, w := range open {
			s.sat.Clear(w)
		}
		for d := 0; d < 10; d++ {
			if got := draw(s); got != open[0] {
				t.Fatalf("open words %v: drew word %d, want the lowest", open, got)
			}
		}
	}
	for _, words := range []int{1, 63, 64, 65, 128, 130} {
		s := NewNameSpace("t-narrow-partial", words*64-1) // partial last bitmap word too
		for w := 0; w < words; w++ {
			s.sat.Set(w)
		}
		before := *r
		if got := s.ProbeWord(r, false); got != -1 || *r != before {
			t.Fatalf("%d words, all hinted: drew word %d, generator moved %v", words, got, *r != before)
		}
		s.sat.Clear(words - 1)
		if got := draw(s); got != words-1 {
			t.Fatalf("%d words: drew word %d, want the one open word %d", words, got, words-1)
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
