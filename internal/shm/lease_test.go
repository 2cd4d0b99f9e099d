package shm

import (
	"sync"
	"testing"
)

func TestStampPackRoundTrip(t *testing.T) {
	cases := []struct{ holder, epoch uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {1, 1},
		{MaxHolder, stampEpochMask},
		{HolderOrphan, 42}, {HolderSuspect, 42}, {HolderTomb, 42},
		{12345, 1 << 39},
	}
	for _, tc := range cases {
		s := PackStamp(tc.holder, tc.epoch)
		h, e := UnpackStamp(s)
		if h != tc.holder || e != tc.epoch {
			t.Fatalf("pack(%d,%d) -> unpack = (%d,%d)", tc.holder, tc.epoch, h, e)
		}
		if (s == 0) != (tc.holder == 0 && tc.epoch == 0) {
			t.Fatalf("pack(%d,%d) = %#x: zero iff both zero violated", tc.holder, tc.epoch, s)
		}
	}
}

// FuzzStampPack pins the stamp encoding: in-range (holder, epoch) pairs
// round-trip exactly, distinct pairs never alias, and the zero stamp means
// unheld (only the (0,0) pair maps to it).
func FuzzStampPack(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1), uint64(1))
	f.Add(uint64(1), uint64(0), uint64(0), uint64(1))
	f.Add(uint64(MaxHolder), uint64(stampEpochMask), uint64(HolderOrphan), uint64(0))
	f.Fuzz(func(t *testing.T, h1, e1, h2, e2 uint64) {
		h1 &= stampHolderMax
		h2 &= stampHolderMax
		e1 &= stampEpochMask
		e2 &= stampEpochMask
		s1, s2 := PackStamp(h1, e1), PackStamp(h2, e2)
		if gh, ge := UnpackStamp(s1); gh != h1 || ge != e1 {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", h1, e1, gh, ge)
		}
		if (s1 == s2) != (h1 == h2 && e1 == e2) {
			t.Fatalf("alias: pack(%d,%d)=%#x vs pack(%d,%d)=%#x", h1, e1, s1, h2, e2, s2)
		}
		if s1 == 0 && (h1 != 0 || e1 != 0) {
			t.Fatalf("nonzero pair (%d,%d) packed to the unheld sentinel", h1, e1)
		}
	})
}

func TestStampClaimable(t *testing.T) {
	claimable := []uint64{0, PackStamp(HolderOrphan, 7), PackStamp(HolderTomb, 7)}
	for _, s := range claimable {
		if !StampClaimable(s) {
			t.Fatalf("stamp %#x should be claimable", s)
		}
	}
	unclaimable := []uint64{PackStamp(1, 0), PackStamp(42, 99), PackStamp(HolderSuspect, 7), PackStamp(MaxHolder, 0)}
	for _, s := range unclaimable {
		if StampClaimable(s) {
			t.Fatalf("stamp %#x should not be claimable", s)
		}
	}
}

func TestStampStale(t *testing.T) {
	if StampStale(10, 10, 0) {
		t.Fatal("same epoch never stale")
	}
	if !StampStale(11, 10, 0) {
		t.Fatal("zero TTL stale after one epoch")
	}
	if StampStale(15, 10, 5) {
		t.Fatal("exactly TTL epochs is not stale")
	}
	if !StampStale(16, 10, 5) {
		t.Fatal("TTL+1 epochs is stale")
	}
	if StampStale(5, 10, 0) {
		t.Fatal("future epoch never stale")
	}
}

// TestStampLifecycle walks one name through the full protocol: publish,
// refresh, clear; then the crashed-holder path: publish, adopt refusal
// (stamp live), expiry, two-phase reclaim, republish over the tombstone.
func TestStampLifecycle(t *testing.T) {
	st := NewStamps("lease-test", 8)
	p := NewProc(0, nil, nil, 0)

	// Live path.
	if !st.Publish(p, 3, PackStamp(7, 100)) {
		t.Fatal("publish on clear slot")
	}
	if st.Publish(p, 3, PackStamp(8, 100)) {
		t.Fatal("publish over a live foreign lease must fail")
	}
	if !st.Refresh(p, 3, 7, 120) {
		t.Fatal("holder refresh")
	}
	if st.Refresh(p, 3, 8, 130) {
		t.Fatal("foreign refresh must fail")
	}
	if !st.ClearOwned(p, 3, 7) {
		t.Fatal("holder clear")
	}
	if st.Load(3) != 0 {
		t.Fatalf("stamp %#x after clear", st.Load(3))
	}

	// Crash path: holder 7 publishes and dies.
	if !st.Publish(p, 3, PackStamp(7, 200)) {
		t.Fatal("republish")
	}
	obs := st.Load(3)
	if !st.BeginReclaim(3, obs, 300) {
		t.Fatal("begin reclaim of observed stale stamp")
	}
	if st.Publish(p, 3, PackStamp(9, 300)) {
		t.Fatal("publish over a suspect mark must fail")
	}
	if st.ClearOwned(p, 3, 7) {
		t.Fatal("dead holder's late release must lose to the reclaim")
	}
	if !st.FinishReclaim(3, 300, 310) {
		t.Fatal("finish reclaim")
	}
	if !st.Publish(p, 3, PackStamp(9, 320)) {
		t.Fatal("publish over a tombstone")
	}
}

// TestStampsAbsentPages pins stamp residency on first write. A fresh array
// holds only its page table. An absent page reads as zero stamps, refuses
// Refresh and ClearOwned at their usual one step, and fails every CAS that
// expects a nonzero stamp without allocating. Publish, Adopt, Inject and
// Quarantine each install exactly the page they write.
func TestStampsAbsentPages(t *testing.T) {
	const n = 200 // pages of 64, 64, 64 and 8 names
	st := NewStamps("absent-pages", n)
	p := NewProc(0, nil, nil, 0)
	const table = 4 * 8
	live := PackStamp(7, 1)
	if st.Refresh(p, 70, 7, 2) || st.ClearOwned(p, 70, 7) {
		t.Fatal("an absent page refreshed or cleared a lease")
	}
	if p.Steps() != 2 {
		t.Fatalf("Refresh and ClearOwned on an absent page took %d steps, want 2", p.Steps())
	}
	if st.BeginReclaim(70, live, 2) || st.FinishReclaim(70, 1, 2) || st.Drop(70, live) || st.Quarantine(70, live, 2) {
		t.Fatal("a CAS expecting a nonzero stamp succeeded on an absent page")
	}
	for i := range n {
		if st.Load(i) != 0 || st.Resident(i) {
			t.Fatalf("name %d: fresh stamp %#x, resident %v", i, st.Load(i), st.Resident(i))
		}
	}
	if got := st.ResidentBytes(); got != table {
		t.Fatalf("fresh array holds %d bytes, want its %d-byte page table", got, table)
	}
	installed := 0
	for _, w := range []struct {
		name  string
		i     int
		words int
		write func(i int) bool
	}{
		{"Publish", 10, 64, func(i int) bool { return st.Publish(p, i, live) }},
		{"Adopt", 70, 64, func(i int) bool { return st.Adopt(i, 1) }},
		{"Inject", 130, 64, func(i int) bool { st.Inject(i, live); return true }},
		{"Quarantine", 199, 8, func(i int) bool { return st.Quarantine(i, 0, 1) }},
	} {
		if !w.write(w.i) || st.Load(w.i) == 0 || !st.Resident(w.i) {
			t.Fatalf("%s on an absent page: stamp %#x, resident %v", w.name, st.Load(w.i), st.Resident(w.i))
		}
		installed += w.words
		if got, want := st.ResidentBytes(), int64(table+8*installed); got != want {
			t.Fatalf("after %s: %d bytes, want %d", w.name, got, want)
		}
	}
	if got := st.CountHolder(7); got != 2 {
		t.Fatalf("CountHolder(7) = %d, want 2", got)
	}
}

// TestStampReclaimLosesToRefresh pins the no-lost-name guarantee: a holder
// that heartbeats between the sweep's observation and its reclaim CAS keeps
// the name.
func TestStampReclaimLosesToRefresh(t *testing.T) {
	st := NewStamps("lease-race", 4)
	p := NewProc(0, nil, nil, 0)
	if !st.Publish(p, 0, PackStamp(5, 10)) {
		t.Fatal("publish")
	}
	observed := st.Load(0)
	if !st.Refresh(p, 0, 5, 50) { // heartbeat lands first
		t.Fatal("refresh")
	}
	if st.BeginReclaim(0, observed, 60) {
		t.Fatal("reclaim of a refreshed lease must fail")
	}
	if h, e := UnpackStamp(st.Load(0)); h != 5 || e != 50 {
		t.Fatalf("lease disturbed: (%d,%d)", h, e)
	}
}

// TestStampedClaimEngine drives the stamped word ops on a NameSpace:
// claim+publish, publish-lost walk-away, stamp-guarded free.
func TestStampedClaimEngine(t *testing.T) {
	ns := NewNameSpace("stamped-claims", 128)
	st := NewStamps("stamped-claims:lease", 128)
	ns.AttachStamps(st, 0)
	p := NewProc(0, nil, nil, 0)
	me := PackStamp(3, 11)

	n := ns.ClaimFirstFreeStamped(p, 0, me)
	if n != 0 {
		t.Fatalf("first stamped claim = %d", n)
	}
	if h, e := UnpackStamp(st.Load(0)); h != 3 || e != 11 {
		t.Fatalf("stamp (%d,%d)", h, e)
	}

	// A suspect mark on the next free bit forces a walk-away: the claim
	// skips it and grants the bit after, leaving the suspect bit set.
	if !st.BeginReclaim(1, 0, 5) {
		t.Fatal("plant suspect")
	}
	n = ns.ClaimFirstFreeStamped(p, 0, me)
	if n != 2 {
		t.Fatalf("stamped claim walked to %d, want 2 (skipping suspect bit 1)", n)
	}
	if !ns.Probe(1) {
		t.Fatal("walked-away bit must stay set for the reclaim path")
	}

	// Batch claim: bits 3..6 with one stamped mask op.
	won := ns.ClaimMaskStamped(p, 0, 0b1111<<3, me)
	if won != 0b1111<<3 {
		t.Fatalf("mask claim %#x", won)
	}

	// Stamp-guarded free: foreign holder frees nothing.
	if freed := ns.FreeMaskStamped(p, 0, 1<<3, 999); freed != 0 {
		t.Fatalf("foreign free freed %#x", freed)
	}
	if !ns.Probe(3) {
		t.Fatal("name 3 must survive a foreign free")
	}
	if freed := ns.FreeMaskStamped(p, 0, 0b1111<<3, 3); freed != 0b1111<<3 {
		t.Fatalf("owner free freed %#x", freed)
	}
	for i := 3; i <= 6; i++ {
		if ns.Probe(i) || st.Load(i) != 0 {
			t.Fatalf("name %d not fully released", i)
		}
	}
}

// TestStampedClaimStorm races stamped claimers against a reclaiming sweeper
// on one shared space under -race: every grant must be unique, and a freed
// name must always be re-grantable.
func TestStampedClaimStorm(t *testing.T) {
	const names, workers, rounds = 256, 8, 200
	ns := NewNameSpacePadded("stamp-storm", names)
	st := NewStamps("stamp-storm:lease", names)
	ns.AttachStamps(st, 0)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewProc(g, nil, nil, 0)
			holder := uint64(g + 1)
			for r := range rounds {
				stamp := PackStamp(holder, uint64(r))
				var mine []int
				for w := 0; w < ns.Words(); w++ {
					if n := ns.ClaimFirstFreeStamped(p, w, stamp); n >= 0 {
						mine = append(mine, n)
					}
					if len(mine) == 4 {
						break
					}
				}
				for _, n := range mine {
					if h, _ := UnpackStamp(st.Load(n)); h != holder {
						t.Errorf("worker %d holds name %d stamped by %d", g, n, h)
						return
					}
				}
				for _, n := range mine {
					if !ns.FreeStamped(p, n, holder) {
						t.Errorf("worker %d lost live name %d to a reclaim that never ran", g, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := ns.CountClaimed(); got != 0 {
		t.Fatalf("%d names leaked after storm", got)
	}
	for i := range names {
		if st.Load(i) != 0 {
			t.Fatalf("stamp %d leaked: %#x", i, st.Load(i))
		}
	}
}
