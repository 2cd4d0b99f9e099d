package shmrename

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// leaseArena builds a lease-enabled arena for one backend, failing the test
// on construction errors and closing the arena (stopping any reaper) on
// cleanup.
func leaseArena(t *testing.T, backend ArenaBackend, capacity int, lc LeaseConfig) *Arena {
	t.Helper()
	a, err := NewArena(ArenaConfig{Capacity: capacity, Backend: backend, Lease: &lc})
	if err != nil {
		t.Fatalf("%q: %v", backend, err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestArenaLeaseLifecycle pins the public lease surface on every backend:
// Leased reports the layer, Heartbeat renews exactly the handle's held
// names, a sweep under a generous TTL reclaims nothing, the Stats counters
// track all of it, and Close is idempotent.
func TestArenaLeaseLifecycle(t *testing.T) {
	for _, backend := range defaultAndStormBackends() {
		a := leaseArena(t, backend, 32, LeaseConfig{TTL: time.Hour})
		if !a.Leased() {
			t.Fatalf("%q: lease-configured arena reports Leased() == false", backend)
		}
		names, err := a.AcquireN(10)
		if err != nil {
			t.Fatalf("%q: %v", backend, err)
		}
		if got := a.Heartbeat(); got != len(names) {
			t.Fatalf("%q: Heartbeat renewed %d leases, hold %d names", backend, got, len(names))
		}
		// TTL is an hour: nothing can be stale, and live leases must never
		// be harvested by a sweep.
		if got := a.SweepStale(); got != 0 {
			t.Fatalf("%q: sweep reclaimed %d fresh leases", backend, got)
		}
		for _, n := range names {
			if err := a.Release(n); err != nil {
				t.Fatalf("%q: release %d after sweep: %v", backend, n, err)
			}
		}
		st := a.Stats()
		if st.Heartbeats != 1 || st.Sweeps != 1 || st.Reclaimed != 0 {
			t.Fatalf("%q: stats %+v, want 1 heartbeat, 1 sweep, 0 reclaimed", backend, st)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("%q: close: %v", backend, err)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("%q: second close: %v", backend, err)
		}
	}
}

// TestArenaLeaseExpiry is the crash story through the public API: a handle
// acquires names, goes silent past its TTL (no release, no heartbeat), and
// a sweep returns every name to the pool, after which the full capacity is
// grantable again.
func TestArenaLeaseExpiry(t *testing.T) {
	for _, backend := range defaultAndStormBackends() {
		const capacity = 32
		a := leaseArena(t, backend, capacity, LeaseConfig{TTL: time.Millisecond})
		names, err := a.AcquireN(10)
		if err != nil {
			t.Fatalf("%q: %v", backend, err)
		}
		time.Sleep(10 * time.Millisecond) // let every lease lapse
		if got := a.SweepStale(); got != len(names) {
			t.Fatalf("%q: sweep reclaimed %d of %d stale leases", backend, got, len(names))
		}
		if held := a.Held(); held != 0 {
			t.Fatalf("%q: %d names still held after reclaim", backend, held)
		}
		if st := a.Stats(); st.Reclaimed != int64(len(names)) {
			t.Fatalf("%q: stats %+v, want Reclaimed=%d", backend, st, len(names))
		}
		// The pool must be whole: a full-capacity batch succeeds.
		if _, err := a.AcquireN(capacity); err != nil {
			t.Fatalf("%q: full reacquire after reclaim: %v", backend, err)
		}
	}
}

// TestArenaLeaseHeartbeatSpares: a heartbeating holder's names survive a
// sweep even when their original acquire-time stamps have long lapsed.
func TestArenaLeaseHeartbeatSpares(t *testing.T) {
	for _, backend := range defaultAndStormBackends() {
		a := leaseArena(t, backend, 32, LeaseConfig{TTL: 100 * time.Millisecond})
		names, err := a.AcquireN(8)
		if err != nil {
			t.Fatalf("%q: %v", backend, err)
		}
		time.Sleep(20 * time.Millisecond)
		// The heartbeat lands immediately before the sweep, so the leases'
		// age is far below TTL regardless of scheduling noise.
		if got := a.Heartbeat(); got != len(names) {
			t.Fatalf("%q: heartbeat renewed %d of %d", backend, got, len(names))
		}
		if got := a.SweepStale(); got != 0 {
			t.Fatalf("%q: sweep stole %d names from a heartbeating holder", backend, got)
		}
		for _, n := range names {
			if !a.impl.IsHeld(n) {
				t.Fatalf("%q: name %d lost despite heartbeats", backend, n)
			}
		}
	}
}

// TestArenaLeaseReaper: a background reaper alone — no SweepStale calls —
// recovers a silent holder's names.
func TestArenaLeaseReaper(t *testing.T) {
	a := leaseArena(t, ArenaLevel, 32, LeaseConfig{TTL: time.Millisecond, Reaper: time.Millisecond})
	if _, err := a.AcquireN(10); err != nil {
		t.Fatal(err)
	}
	// Poll the counter, not Held: the sweeper frees names during a pass
	// but adds to its counters only after it, so Held can read 0 while
	// Reclaimed still reads 0.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Reclaimed < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper never reclaimed: %d still held, stats %+v", a.Held(), a.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := a.Stats(); st.Sweeps == 0 || st.Reclaimed != 10 || a.Held() != 0 {
		t.Fatalf("stats %+v with %d held, want background sweeps, Reclaimed=10 and nothing held", st, a.Held())
	}
	if err := a.Close(); err != nil { // stops the reaper
		t.Fatal(err)
	}
}

// TestArenaUnleased: with ArenaConfig.Lease nil the recovery surface is
// inert — no-op methods, zero counters, trivial Close.
// TestArenaAliveOracleGetsPID pins the holder identity handed to a
// user-supplied LeaseConfig.Alive oracle: the raw process ID, identically
// for in-process arenas and the mmap-backed kind, so a kill(pid, 0)-style
// oracle probes the right process either way.
func TestArenaAliveOracleGetsPID(t *testing.T) {
	var seen []uint64
	a := leaseArena(t, ArenaLevel, 8, LeaseConfig{
		TTL: 5 * time.Millisecond,
		Alive: func(holder uint64) bool {
			seen = append(seen, holder)
			return true // spare: this test is about the identity, not reclaim
		},
	})
	if _, err := a.Acquire(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never went stale enough to consult the oracle")
		}
		time.Sleep(10 * time.Millisecond)
		a.SweepStale()
	}
	for _, h := range seen {
		if h != uint64(os.Getpid()) {
			t.Fatalf("oracle consulted with holder %d, want pid %d", h, os.Getpid())
		}
	}
}

func TestArenaUnleased(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Leased() {
		t.Fatal("lease-free arena reports Leased() == true")
	}
	if _, err := a.Acquire(); err != nil {
		t.Fatal(err)
	}
	if got := a.Heartbeat(); got != 0 {
		t.Fatalf("Heartbeat on lease-free arena renewed %d", got)
	}
	if got := a.SweepStale(); got != 0 {
		t.Fatalf("SweepStale on lease-free arena reclaimed %d", got)
	}
	if st := a.Stats(); st.Heartbeats != 0 || st.Sweeps != 0 || st.Reclaimed != 0 {
		t.Fatalf("lease counters moved on lease-free arena: %+v", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseConfigValidation: malformed lease configs are rejected at
// construction, before any background machinery starts.
func TestLeaseConfigValidation(t *testing.T) {
	cases := []LeaseConfig{
		{},                  // TTL unset
		{TTL: -time.Second}, // negative TTL
		{TTL: time.Second, Reaper: -time.Millisecond}, // negative interval
	}
	for i, lc := range cases {
		if _, err := NewArena(ArenaConfig{Capacity: 8, Lease: &lc}); err == nil {
			t.Fatalf("case %d accepted: %+v", i, lc)
		}
	}
}

// TestArenaAcquireSentinel pins the error-path name contract on every
// backend, leases on and off: a failed Acquire returns exactly -1 (outside
// the valid range, so a dropped error can never alias name 0), and a failed
// AcquireN returns a nil slice.
func TestArenaAcquireSentinel(t *testing.T) {
	for _, backend := range defaultAndStormBackends() {
		for _, lease := range []*LeaseConfig{nil, {TTL: time.Hour}} {
			a, err := NewArena(ArenaConfig{Capacity: 2, Backend: backend, Lease: lease})
			if err != nil {
				t.Fatalf("%q: %v", backend, err)
			}
			// Drain structurally; every failed acquire must yield (-1, full).
			for i := 0; i < a.NameBound(); i++ {
				n, err := a.Acquire()
				if err != nil {
					if !errors.Is(err, ErrArenaFull) {
						t.Fatalf("%q: unexpected acquire error: %v", backend, err)
					}
					if n != -1 {
						t.Fatalf("%q: failed Acquire returned name %d, want -1", backend, n)
					}
					break
				}
			}
			n, err := a.Acquire()
			if !errors.Is(err, ErrArenaFull) || n != -1 {
				t.Fatalf("%q: acquire on full arena = (%d, %v), want (-1, ErrArenaFull)", backend, n, err)
			}
			if names, err := a.AcquireN(2); err == nil || names != nil {
				t.Fatalf("%q: AcquireN on full arena = (%v, %v), want (nil, ErrArenaFull)", backend, names, err)
			}
			a.Close()
		}
	}
}

// TestArenaReleaseAllMixedBatch pins ReleaseAll's partial-failure contract
// on every backend: valid names release even when the batch also carries
// out-of-range entries, unheld names, and in-batch duplicates, and each
// failure's joined error names its position as names[i].
func TestArenaReleaseAllMixedBatch(t *testing.T) {
	for _, backend := range defaultAndStormBackends() {
		a, err := NewArena(ArenaConfig{Capacity: 16, Backend: backend})
		if err != nil {
			t.Fatalf("%q: %v", backend, err)
		}
		names, err := a.AcquireN(4)
		if err != nil {
			t.Fatalf("%q: %v", backend, err)
		}
		bound := a.NameBound()
		batch := []int{
			names[0], // valid
			-1,       // out of range
			names[1], // valid
			names[1], // duplicate of the previous entry
			bound,    // out of range
			names[2], // valid
		}
		err = a.ReleaseAll(batch)
		if !errors.Is(err, ErrNotHeld) {
			t.Fatalf("%q: mixed batch error %v, want ErrNotHeld", backend, err)
		}
		for _, frag := range []string{"names[1]:", "names[3]:", "names[4]:", "repeated in batch"} {
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("%q: mixed batch error %q missing %q", backend, err, frag)
			}
		}
		for _, pos := range []string{"names[0]:", "names[2]:", "names[5]:"} {
			if strings.Contains(err.Error(), pos) {
				t.Fatalf("%q: valid entry reported as failed: %q contains %q", backend, err, pos)
			}
		}
		// The three valid entries released; the untouched fourth remains.
		if held := a.Held(); held != 1 {
			t.Fatalf("%q: %d names held after mixed batch, want 1", backend, held)
		}
		if !a.impl.IsHeld(names[3]) {
			t.Fatalf("%q: untouched name %d lost", backend, names[3])
		}
		if st := a.Stats(); st.Releases != 3 {
			t.Fatalf("%q: stats count %d releases, want 3", backend, st.Releases)
		}
	}
}

// TestArenaStatsRaceStorm hammers Stats, Heartbeat, and SweepStale from
// dedicated goroutines while churners acquire and release, on every
// backend. It asserts only basic sanity — the real assertion is the race
// detector observing the concurrent counter and sweeper traffic.
func TestArenaStatsRaceStorm(t *testing.T) {
	for _, backend := range defaultAndStormBackends() {
		a := leaseArena(t, backend, 64, LeaseConfig{TTL: time.Hour})
		const churners, iters, readers = 4, 200, 2
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					// The counters are snapshotted independently, so no
					// cross-counter invariant holds mid-churn; the race
					// detector is the assertion here.
					a.Stats()
					a.Held()
					a.Heartbeat()
					a.SweepStale()
				}
			}()
		}
		var churn sync.WaitGroup
		for c := 0; c < churners; c++ {
			churn.Add(1)
			go func() {
				defer churn.Done()
				for i := 0; i < iters; i++ {
					n, err := a.Acquire()
					if err != nil {
						continue // transient contention; the arena is oversized
					}
					if err := a.Release(n); err != nil {
						t.Errorf("%q: release %d: %v", backend, n, err)
						return
					}
				}
			}()
		}
		churn.Wait()
		close(done)
		wg.Wait()
		st := a.Stats()
		if st.Acquires != st.Releases {
			t.Fatalf("%q: %d acquires vs %d releases after churn", backend, st.Acquires, st.Releases)
		}
		if held := a.Held(); held != 0 {
			t.Fatalf("%q: %d names leaked by the storm", backend, held)
		}
	}
}

// TestWordLeaseFootprint pins what one-holder word records cost on the
// cached-leased shape: two stripes at capacity 4096 under 64-name lease
// blocks, holding 1,000 names from two goroutines, keep exactly 840 B
// resident. First-fit blocks reach levels 0–4 of stripe 0, 31 bitmap
// words, each installed with its 16-byte record (24 B a word), and the
// two stripes' six levels each hold one hint word: 2×6×8 + 31×24 B. Word
// records kept in a page of 32 beside page and span tables read 1,080 B
// here, per-name stamps 9,544 B. A heartbeat still counts names — held
// plus parked — not the words it renewed.
func TestWordLeaseFootprint(t *testing.T) {
	a, err := NewArena(ArenaConfig{
		Backend:     ArenaBackendSharded,
		Shards:      2,
		Capacity:    4096,
		LeaseBlocks: 64,
		Lease:       &LeaseConfig{TTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				if _, err := a.Acquire(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rb := a.Stats().ResidentBytes
	if want := int64(2*6*8 + 31*24); rb != want {
		t.Fatalf("ResidentBytes = %d holding 1000 names, want %d", rb, want)
	}
	t.Logf("%d B resident holding 1000 names", rb)
	parked := a.cache.Cached()
	if got := a.Heartbeat(); got != 1000+parked {
		t.Fatalf("Heartbeat() = %d, want %d held + %d parked names", got, 1000, parked)
	}
}

// TestResidentFootprintShapes pins the resident bytes of the hold-time
// benchmark's three uncached shapes after a one-goroutine fill, with each
// level's bitmap rounded up to whole 64-byte lines. The level arena
// (capacity 4096, 1,000 names) reaches levels 0–4: seven hint words and
// 1+1+1+1+2 lines. The elastic arena (capacity 4096, 200 names) reaches
// levels 0–2: three hint words and three lines. The sharded arena
// (capacity 1200, two stripes of five levels each, 1,000 names) gets a
// bound, not a value: a pooled proc can change its home stripe after a GC,
// which moves the fill between stripes, so the bound is every level of
// both stripes resident — ten hint words and 2×6 lines. One line per
// bitmap word read 2,040 B, 1,680 B and 472 B here.
func TestResidentFootprintShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    ArenaConfig
		names  int
		want   int64
		atMost bool // want bounds ResidentBytes instead of pinning it
	}{
		{"level", ArenaConfig{Capacity: 4096}, 1000, 7*8 + 6*64, false},
		{"sharded", ArenaConfig{Capacity: 1200, Backend: ArenaBackendSharded, Shards: 2}, 1000, 10*8 + 12*64, true},
		{"elastic", ArenaConfig{Capacity: 4096, Backend: ArenaElastic}, 200, 3*8 + 3*64, false},
	} {
		a, err := NewArena(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for range tc.names {
			if _, err := a.Acquire(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		rb := a.Stats().ResidentBytes
		a.Close()
		if tc.atMost && rb > tc.want {
			t.Fatalf("%s: %d B resident holding %d names, want ≤ %d", tc.name, rb, tc.names, tc.want)
		}
		if !tc.atMost && rb != tc.want {
			t.Fatalf("%s: %d B resident holding %d names, want %d", tc.name, rb, tc.names, tc.want)
		}
		t.Logf("%s: %d B resident holding %d names", tc.name, rb, tc.names)
	}
}
