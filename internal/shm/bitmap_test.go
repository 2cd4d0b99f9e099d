package shm

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"shmrename/internal/prng"
)

// TestPackedTryClaimStorm is the word-packed bitmap's concurrency contract:
// many goroutines hammer TryClaim on a space whose names share words, and
// every name must be won exactly once. Run it under -race; the CAS-on-word
// loop must neither lose claims (a name nobody wins) nor double-grant one.
func TestPackedTryClaimStorm(t *testing.T) {
	for _, layout := range []struct {
		name string
		mk   func(string, int) *NameSpace
	}{
		{"packed", NewNameSpace},
		{"padded", NewNameSpacePadded},
	} {
		t.Run(layout.name, func(t *testing.T) {
			// 130 names: three words (two full, one partial) in the packed
			// layout, so word-sharing and the tail word are both exercised.
			const procs, names = 16, 130
			s := layout.mk("storm-"+layout.name, names)
			winners := make([][]int, procs)
			var wg sync.WaitGroup
			for pid := 0; pid < procs; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					p := NewProc(pid, prng.NewStream(11, pid), nil, 0)
					// Each goroutine probes every name in a seeded order so
					// claims on the same word collide constantly.
					order := p.Rand().Perm(names)
					for _, i := range order {
						if s.TryClaim(p, i) {
							winners[pid] = append(winners[pid], i)
						}
					}
				}(pid)
			}
			wg.Wait()
			owner := make([]int, names)
			for i := range owner {
				owner[i] = -1
			}
			total := 0
			for pid, ws := range winners {
				for _, name := range ws {
					if prev := owner[name]; prev >= 0 {
						t.Fatalf("name %d won by both %d and %d", name, prev, pid)
					}
					owner[name] = pid
					total++
				}
			}
			if total != names {
				t.Fatalf("%d names claimed, want %d (a claim was lost)", total, names)
			}
			if got := s.CountClaimed(); got != names {
				t.Fatalf("CountClaimed = %d, want %d", got, names)
			}
		})
	}
}

// TestBitmapProbeCountConsistency checks the packed bitmap against the old
// bool-per-name semantics: after an arbitrary claim pattern, Probe answers
// per-name membership and CountClaimed equals the pattern's cardinality,
// across word boundaries and for both layouts.
func TestBitmapProbeCountConsistency(t *testing.T) {
	sizes := []int{1, 7, 63, 64, 65, 128, 130, 1000}
	for _, size := range sizes {
		for _, padded := range []bool{false, true} {
			mk := NewNameSpace
			if padded {
				mk = NewNameSpacePadded
			}
			s := mk("consist", size)
			p := NewProc(0, prng.New(uint64(size)), nil, 0)
			want := make(map[int]bool)
			r := p.Rand()
			for k := 0; k < 3*size; k++ {
				i := r.Intn(size)
				won := s.TryClaim(p, i)
				if won == want[i] {
					t.Fatalf("size %d padded %v: TryClaim(%d) = %v with prior claim %v",
						size, padded, i, won, want[i])
				}
				want[i] = true
			}
			for i := 0; i < size; i++ {
				if s.Probe(i) != want[i] {
					t.Fatalf("size %d padded %v: Probe(%d) = %v, want %v",
						size, padded, i, s.Probe(i), want[i])
				}
				if s.Claimed(p, i) != want[i] {
					t.Fatalf("size %d padded %v: Claimed(%d) mismatch", size, padded, i)
				}
			}
			if got := s.CountClaimed(); got != len(want) {
				t.Fatalf("size %d padded %v: CountClaimed = %d, want %d",
					size, padded, got, len(want))
			}
			s.Reset()
			if got := s.CountClaimed(); got != 0 {
				t.Fatalf("size %d padded %v: CountClaimed after Reset = %d", size, padded, got)
			}
		}
	}
}

// TestBitmapOutOfRangePanics pins the bounds contract: the packed layout
// must not let an out-of-range index silently claim tail-word slack bits.
func TestBitmapOutOfRangePanics(t *testing.T) {
	s := NewNameSpace("oob", 70) // two words, 58 slack bits in the tail
	p := NewProc(0, prng.New(1), nil, 0)
	for _, i := range []int{-1, 70, 127} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TryClaim(%d) on size-70 space did not panic", i)
				}
			}()
			s.TryClaim(p, i)
		}()
	}
}

// TestBitmapMemoryFootprint pins the packed layout's space win and its
// residency on first claim: a fresh 2^20-name space holds only its
// saturation hints, and the first claim installs one bit per name, 8x
// below the old byte-per-name layout.
func TestBitmapMemoryFootprint(t *testing.T) {
	const m = 1 << 20
	s := NewNameSpace("foot", m)
	const hints = m / 64 / 64 * 8
	if got := s.FootprintBytes(); got != hints {
		t.Fatalf("fresh 2^20-name space holds %d bytes, want its %d bytes of hints", got, hints)
	}
	s.TryClaim(NewProc(0, nil, nil, 0), m-1)
	// 128 KiB of bitmap, vs 1 MiB for []atomic.Bool.
	if got, want := s.FootprintBytes()-hints, m/8; got != want {
		t.Fatalf("claimed 2^20-name packed space holds a %d-byte bitmap, want %d", got, want)
	}
}

// TestNameSpaceResidentOnFirstClaim pins residency on first claim: reads
// and releases on a fresh space take their usual steps but leave it at its
// hints, and each kind of claim-side write installs the whole bitmap: three
// packed words, or the one cache line a padded space rounds them up to.
func TestNameSpaceResidentOnFirstClaim(t *testing.T) {
	claims := map[string]func(s *NameSpace, p *Proc){
		"TryClaim":            func(s *NameSpace, p *Proc) { s.TryClaim(p, 129) },
		"ClaimFirstFree":      func(s *NameSpace, p *Proc) { s.ClaimFirstFree(p, 2) },
		"ClaimUpTo":           func(s *NameSpace, p *Proc) { s.ClaimUpTo(p, 1, 3) },
		"ClaimMask":           func(s *NameSpace, p *Proc) { s.ClaimMask(p, 0, 1<<7) },
		"ClaimFirstFreeRange": func(s *NameSpace, p *Proc) { s.ClaimFirstFreeRange(p, 70, 130) },
	}
	for _, layout := range []struct {
		name   string
		mk     func(string, int) *NameSpace
		bitmap int // bytes installed by the first claim
	}{{"packed", NewNameSpace, 3 * 8}, {"padded", NewNameSpacePadded, 64}} {
		for op, claim := range claims {
			// 130 names: three bitmap words, summarized by one hint word.
			s := layout.mk("resident-"+layout.name, 130)
			p := NewProc(0, nil, nil, 0)
			const hints = 8
			if s.Claimed(p, 5) || s.Probe(129) || s.CountClaimed() != 0 || s.Saturated() {
				t.Fatalf("%s %s: a fresh space reads a claim", layout.name, op)
			}
			s.Free(p, 5)
			s.FreeMask(p, 1, ^uint64(0))
			s.Reset()
			if got := p.Steps(); got != 3 {
				t.Fatalf("%s %s: Claimed, Free and FreeMask took %d steps, want 3", layout.name, op, got)
			}
			if got := s.FootprintBytes(); got != hints {
				t.Fatalf("%s %s: %d bytes after reads and releases, want the %d-byte hint word", layout.name, op, got, hints)
			}
			claim(s, p)
			if got, want := s.FootprintBytes(), hints+layout.bitmap; got != want {
				t.Fatalf("%s %s: %d bytes after the first claim, want %d", layout.name, op, got, want)
			}
			if s.CountClaimed() == 0 {
				t.Fatalf("%s %s: the first claim is not visible", layout.name, op)
			}
		}
	}
}

// TestPaddedBitmapWholeLines pins the padded layout: the allocation a
// first claim installs starts on a 64-byte boundary and spans whole lines
// — ⌈W/8⌉ for W bitmap words, ⌈3W/8⌉ when word lease records follow the
// bitmap — so a padded space shares no cache line with another
// allocation. The layout takes the alignment from the Go allocator (every
// size class that a whole number of lines rounds up to is itself a
// multiple of 64 bytes) rather than arranging it, so this test pins it.
func TestPaddedBitmapWholeLines(t *testing.T) {
	p := NewProc(0, nil, nil, 0)
	for _, leased := range []bool{false, true} {
		for words := 1; words <= 130; words++ {
			// A partial last word: the rounding counts words, not names.
			s := NewNameSpacePadded("lines", 64*words-1)
			cells, claim := words, s.TryClaim
			if leased {
				NewWordStamps("lines:lease", []*NameSpace{s}, NewCounterEpochs(1))
				cells = 3 * words
				claim = func(p *Proc, i int) bool { return s.TryClaimStamped(p, i, PackStamp(5, 0)) }
			}
			if !claim(p, s.Size()-1) {
				t.Fatalf("leased=%v %d words: the claim of the last name failed", leased, words)
			}
			ws := s.allocation()
			lines := (cells + wordsPerLine - 1) / wordsPerLine
			if at := uintptr(unsafe.Pointer(&ws[0])); at%64 != 0 {
				t.Fatalf("leased=%v %d words: allocation at %#x, not on a 64-byte boundary", leased, words, at)
			}
			if len(ws) != lines*wordsPerLine {
				t.Fatalf("leased=%v %d words: allocation of %d words, want %d whole lines", leased, words, len(ws), lines)
			}
			if got, want := s.FootprintBytes()-len(s.sat.words)*8, lines*64; got != want {
				t.Fatalf("leased=%v %d words: %d allocated bytes, want %d", leased, words, got, want)
			}
			if !s.Probe(s.Size()-1) || s.CountClaimed() != 1 {
				t.Fatalf("leased=%v %d words: the claim in the last word is not visible", leased, words)
			}
			if leased && s.stamps.Owned(words-1) != 1<<62 {
				t.Fatalf("%d words: the last word owns %#x, want its last name", words, s.stamps.Owned(words-1))
			}
		}
	}
}

// TestNameSpaceFirstClaimRace races first claims on fresh spaces: the
// bitmap is installed once — every claimant ends on the same words — and
// no claim is lost to a claimant whose own allocation lost the install
// CAS. Run it under -race at -cpu 1,2: the install race needs parallelism.
func TestNameSpaceFirstClaimRace(t *testing.T) {
	const procs, rounds = 8, 100
	for r := range rounds {
		s := NewNameSpacePadded("first-claim-race", procs*64)
		saw := make([]*[]atomic.Uint64, procs)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := NewProc(g, nil, nil, 0)
				<-start
				// Bit 0 of word g and bit 1 of the next word are this
				// proc's alone.
				if n := s.ClaimFirstFree(p, g); n != g*64 {
					t.Errorf("round %d: proc %d claimed %d, want %d", r, g, n, g*64)
				}
				if !s.TryClaim(p, (g+1)%procs*64+1) {
					t.Errorf("round %d: proc %d lost an uncontended name", r, g)
				}
				saw[g] = s.words.Load()
			}()
		}
		close(start)
		wg.Wait()
		for g, ws := range saw {
			if ws != s.words.Load() {
				t.Fatalf("round %d: proc %d claimed in a bitmap that was not installed", r, g)
			}
		}
		if got := s.CountClaimed(); got != 2*procs {
			t.Fatalf("round %d: %d claims visible, want %d", r, got, 2*procs)
		}
	}
}

// TestBackedStorageResident: name spaces and stamp arrays on external
// storage (the mmap-backed namespace) are resident from construction and
// read and write the backing words in place.
func TestBackedStorageResident(t *testing.T) {
	bitmap := make([]atomic.Uint64, 3)
	bitmap[2].Store(1 << 1) // name 129 claimed in the backing
	s := NewNameSpaceBacked("backed-bits", 130, bitmap)
	if got, want := s.FootprintBytes(), 3*8+8; got != want || !s.Probe(129) {
		t.Fatalf("backed space: %d bytes (want %d), name 129 claimed %v", got, want, s.Probe(129))
	}
	stamps := make([]atomic.Uint64, 130)
	stamps[129].Store(PackStamp(5, 1))
	st := NewStampsBacked("backed-stamps", 130, stamps)
	if got, want := st.ResidentBytes(), int64(8*(3+130)); got != want {
		t.Fatalf("backed stamps: %d bytes, want %d", got, want)
	}
	if h, _ := UnpackStamp(st.Load(129)); h != 5 || !st.Resident(0) || !st.Resident(128) {
		t.Fatal("backed stamps do not read their backing")
	}
	st.Inject(3, PackStamp(9, 1))
	if stamps[3].Load() != PackStamp(9, 1) {
		t.Fatal("a stamp write did not land in the backing")
	}
}
