package shm

import (
	"testing"
	"unsafe"
)

// wordLadder builds two packed levels of 64 and 130 names under one
// word-record array: word 0 is level 0's, words 1–3 level 1's.
func wordLadder(label string) (*Stamps, *NameSpace, *NameSpace) {
	l0, l1 := NewNameSpace(label+":L0", 64), NewNameSpace(label+":L1", 130)
	return NewWordStamps(label+":lease", []*NameSpace{l0, l1}, NewCounterEpochs(1)), l0, l1
}

// TestWordStampsOneAllocation: a word-layout space installs its bitmap and
// its records in one allocation on its first claim — the records follow
// the bitmap words, 16 bytes per word — and the claim lands in both.
func TestWordStampsOneAllocation(t *testing.T) {
	st, l0, l1 := wordLadder("one-alloc")
	p := NewProc(0, nil, nil, 0)
	const hints = 8
	if st.Size() != 194 || st.Slots() != 4 || st.ResidentBytes() != 0 {
		t.Fatalf("array of %d names, %d slots, %d own bytes; want 194, 4, 0", st.Size(), st.Slots(), st.ResidentBytes())
	}
	if l1.FootprintBytes() != hints || l1.allocation() != nil {
		t.Fatalf("fresh level holds %d bytes", l1.FootprintBytes())
	}
	if n := l1.ClaimFirstFreeStamped(p, 2, PackStamp(5, 0)); n != 128 {
		t.Fatalf("claimed %d, want 128", n)
	}
	ws := l1.allocation()
	if len(ws) != 3*3 || l1.FootprintBytes() != hints+3*24 {
		t.Fatalf("level of 3 words installed %d cells (%d bytes), want 9 (%d)", len(ws), l1.FootprintBytes(), hints+3*24)
	}
	rec := st.record(3)
	lo, hi := uintptr(unsafe.Pointer(&ws[0])), uintptr(unsafe.Pointer(&ws[len(ws)-1]))
	if at := uintptr(unsafe.Pointer(&rec[recLease])); at < lo || at > hi {
		t.Fatal("word 3's record lies outside its level's allocation")
	}
	if h, _ := UnpackStamp(st.Load(3)); h != 5 || st.Owned(3) != 1 || ws[2].Load() != 1 {
		t.Fatalf("word 3: lease holder %d, owned %#x, bits %#x; want 5, 1, 1", h, st.Owned(3), ws[2].Load())
	}
	if l0.allocation() != nil || st.Resident(0) || !st.Resident(1) {
		t.Fatal("a claim in level 1 installed level 0")
	}
}

// TestWordStampsUnclaimedLevel: an unclaimed level reads zero leases and
// owned masks, refuses a release-side renew and every CAS expecting a
// nonzero lease at their usual steps, and allocates nothing doing so.
func TestWordStampsUnclaimedLevel(t *testing.T) {
	st, _, l1 := wordLadder("unclaimed")
	p := NewProc(0, nil, nil, 0)
	live := PackStamp(5, 1)
	reads := func() {
		for w := 1; w < st.Slots(); w++ {
			if st.Load(w) != 0 || st.Owned(w) != 0 || st.LeaseWord(p, w) != 0 || st.OwnedWord(p, w) != 0 ||
				st.BitsWord(p, w) != 0 || st.TakeOwned(p, w) != 0 || st.Resident(w) {
				t.Fatalf("word %d of an unclaimed level reads state", w)
			}
			if st.RefreshWord(p, w, 5, 2) || l1.FreeMaskStamped(p, w-1, 1, 5) != 0 || l1.FreeStamped(p, (w-1)<<6, 5) {
				t.Fatalf("word %d of an unclaimed level renewed a lease", w)
			}
			if st.BeginReclaimWord(p, w, live, 2) || st.FinishReclaimWord(p, w, 1, 2) ||
				st.DropWord(p, w, live) || st.QuarantineWord(p, w, live, 2) {
				t.Fatalf("word %d: a CAS expecting a nonzero lease succeeded", w)
			}
		}
	}
	reads()
	// Per word: three reads, the owned swap, a refresh, two retires and
	// four CASes, each one step.
	if got, want := p.Steps(), int64(3*11); got != want {
		t.Fatalf("took %d steps, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(10, reads); allocs != 0 {
		t.Fatalf("reads and refused renewals allocated %.0f times", allocs)
	}
	if l1.allocation() != nil || l1.FootprintBytes() != 8 {
		t.Fatalf("unclaimed level holds %d bytes", l1.FootprintBytes())
	}
}

// TestWordStampsWritesInstall: Inject, InjectOwned and QuarantineWord on
// an unclaimed level install its whole allocation and write the record.
func TestWordStampsWritesInstall(t *testing.T) {
	p := NewProc(0, nil, nil, 0)
	for _, tc := range []struct {
		name  string
		write func(st *Stamps)
		lease uint64
		owned uint64
	}{
		{"Inject", func(st *Stamps) { st.Inject(2, PackStamp(7, 1)) }, PackStamp(7, 1), 0},
		{"InjectOwned", func(st *Stamps) { st.InjectOwned(2, 1<<9) }, 0, 1 << 9},
		{"QuarantineWord", func(st *Stamps) {
			if !st.QuarantineWord(p, 2, 0, 4) {
				t.Fatal("QuarantineWord from zero failed")
			}
		}, PackStamp(HolderQuarantine, 4), 0},
	} {
		st, l0, l1 := wordLadder("installs-" + tc.name)
		tc.write(st)
		if len(l1.allocation()) != 9 || l0.allocation() != nil {
			t.Fatalf("%s: installed %d cells in level 1 and %d in level 0, want 9 and 0", tc.name, len(l1.allocation()), len(l0.allocation()))
		}
		if st.Load(2) != tc.lease || st.Owned(2) != tc.owned || l1.CountClaimed() != 0 {
			t.Fatalf("%s: lease %#x owned %#x claimed %d", tc.name, st.Load(2), st.Owned(2), l1.CountClaimed())
		}
	}
}
