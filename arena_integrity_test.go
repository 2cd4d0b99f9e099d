package shmrename

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"shmrename/internal/shm"
)

// integrityArena builds a lease+integrity level arena for damage injection.
func integrityArena(t *testing.T, capacity int, quarantine bool) *Arena {
	t.Helper()
	a, err := NewArena(ArenaConfig{
		Capacity:  capacity,
		Lease:     &LeaseConfig{TTL: time.Hour},
		Integrity: &IntegrityConfig{Quarantine: quarantine},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// injectViolation plants bit-clear/client-stamp damage — the irreparable
// class — on one free name of the arena, returning the global name. A
// public arena has one holder and keeps word records, so the damage is an
// owned bit over the clear claim bit.
func injectViolation(t *testing.T, a *Arena) int {
	t.Helper()
	for _, d := range a.rec.LeaseDomains() {
		st := d.Stamps
		for i := 0; i < st.Size(); i++ {
			if d.IsHeld(i) {
				continue
			}
			if !st.PerWord() {
				if st.Load(i) == 0 {
					st.Inject(i, shm.PackStamp(12345, a.epochs.Now()))
					return d.Base + i
				}
				continue
			}
			if w, bit := i>>6, uint64(1)<<(i&63); st.Owned(w)&bit == 0 {
				st.InjectOwned(w, st.Owned(w)|bit)
				return d.Base + i
			}
		}
	}
	t.Fatal("no free name to corrupt")
	return -1
}

// TestIntegrityRequiresLease: the config dependency is validated.
func TestIntegrityRequiresLease(t *testing.T) {
	_, err := NewArena(ArenaConfig{Capacity: 64, Integrity: &IntegrityConfig{}})
	if err == nil || !strings.Contains(err.Error(), "Lease") {
		t.Fatalf("Integrity without Lease: %v", err)
	}
	if _, err := NewArena(ArenaConfig{
		Capacity:  64,
		Lease:     &LeaseConfig{TTL: time.Second},
		Integrity: &IntegrityConfig{ScrubInterval: -time.Second},
	}); err == nil {
		t.Fatal("negative ScrubInterval accepted")
	}
}

// TestHealthLifecycle: Healthy on a clean arena, Degraded after a
// quarantine, capacity debited, scrub stats populated, and no name of the
// quarantined word ever granted.
func TestHealthLifecycle(t *testing.T) {
	a := integrityArena(t, 256, true)
	if h := a.Health(); h != Healthy {
		t.Fatalf("fresh arena health %v", h)
	}
	if res := a.Scrub(); res.Repaired != 0 || res.Quarantined != 0 || res.Unrepaired != 0 {
		t.Fatalf("clean scrub not idle: %+v", res)
	}

	bad := injectViolation(t, a)
	res := a.Scrub()
	if res.Quarantined == 0 || res.Unrepaired != 0 {
		t.Fatalf("violation not quarantined: %+v", res)
	}
	if h := a.Health(); h != Degraded {
		t.Fatalf("post-quarantine health %v, want %v", h, Degraded)
	}
	if got := a.Capacity(); got != 256-res.Quarantined {
		t.Fatalf("capacity %d, want %d", got, 256-res.Quarantined)
	}
	st := a.Stats()
	if st.ScrubPasses != 2 || st.Quarantined != int64(res.Quarantined) {
		t.Fatalf("stats %+v", st)
	}

	// The reduced capacity is fully grantable, duplicates never.
	seen := map[int]bool{}
	for i := 0; i < a.Capacity(); i++ {
		n, err := a.Acquire()
		if err != nil {
			t.Fatalf("acquire %d of %d: %v", i, a.Capacity(), err)
		}
		if seen[n] {
			t.Fatalf("duplicate grant %d", n)
		}
		if n == bad {
			t.Fatalf("granted quarantined name %d", n)
		}
		seen[n] = true
	}
}

// TestHealthFailedWithoutQuarantine: with quarantine off a violation is
// reported, not contained — Health goes Failed and stays there until the
// damage is gone.
func TestHealthFailedWithoutQuarantine(t *testing.T) {
	a := integrityArena(t, 128, false)
	injectViolation(t, a)
	if res := a.Scrub(); res.Unrepaired != 1 {
		t.Fatalf("scrub %+v, want one unrepaired violation", res)
	}
	if h := a.Health(); h != Failed {
		t.Fatalf("health %v, want %v", h, Failed)
	}
}

// TestHealthString covers the stringer.
func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{Healthy: "healthy", Degraded: "degraded", Failed: "failed", Health(9): "Health(9)"} {
		if got := h.String(); got != want {
			t.Fatalf("Health(%d).String() = %q, want %q", int(h), got, want)
		}
	}
}

// TestBackgroundScrubber: ScrubInterval runs passes without explicit Scrub
// calls, and Close stops the loop.
func TestBackgroundScrubber(t *testing.T) {
	a, err := NewArena(ArenaConfig{
		Capacity:  128,
		Lease:     &LeaseConfig{TTL: time.Hour},
		Integrity: &IntegrityConfig{ScrubInterval: time.Millisecond, Quarantine: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().ScrubPasses == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Stats().ScrubPasses == 0 {
		t.Fatal("background scrubber never ran")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedStickyError: a lease-cache conservation violation under
// ArenaConfig.Integrity surfaces as Health Failed plus a sticky
// ErrCorrupted on every subsequent operation, instead of a panic. (Race
// builds keep the panic; see leasecache's strictConservation.)
func TestCorruptedStickyError(t *testing.T) {
	if raceDetector {
		t.Skip("race build: conservation violations panic by design")
	}
	a, err := NewArena(ArenaConfig{
		Capacity:    256,
		LeaseBlocks: 8,
		Lease:       &LeaseConfig{TTL: time.Hour},
		Integrity:   &IntegrityConfig{Quarantine: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Double-release through the cache: the first parks n (cached bit
	// set), the second marks it again — the conservation violation.
	if err := a.Release(n); err != nil {
		t.Fatal(err)
	}
	a.cache.Release(a.proc(), n) // bypasses the public not-held guard

	if h := a.Health(); h != Failed {
		t.Fatalf("health %v after cache violation, want %v", h, Failed)
	}
	if _, err := a.Acquire(); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("Acquire after corruption: %v, want ErrCorrupted", err)
	}
	if _, err := a.AcquireN(2); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("AcquireN after corruption: %v, want ErrCorrupted", err)
	}
	if err := a.Release(0); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("Release after corruption: %v, want ErrCorrupted", err)
	}
	if err := a.ReleaseAll([]int{0}); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("ReleaseAll after corruption: %v, want ErrCorrupted", err)
	}
	if _, err := a.AcquireCtx(context.Background()); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("AcquireCtx after corruption: %v, want ErrCorrupted", err)
	}
}

// TestAcquireCtxBackpressure: AcquireCtx waits out a full arena and
// succeeds once capacity frees, without ever returning ErrArenaFull.
func TestAcquireCtxBackpressure(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	names, err := a.AcquireN(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	got := -1
	var gotErr error
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		got, gotErr = a.AcquireCtx(ctx)
	}()
	time.Sleep(5 * time.Millisecond) // let it hit the full arena and back off
	if err := a.Release(names[0]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if gotErr != nil {
		t.Fatalf("AcquireCtx: %v", gotErr)
	}
	if got < 0 || got >= a.NameBound() {
		t.Fatalf("AcquireCtx name %d out of range", got)
	}
}

// TestAcquireCtxCancel: a context that ends first yields an error carrying
// both causes, and pre-cancelled contexts return immediately.
func TestAcquireCtxCancel(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.AcquireN(64); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	n, err := a.AcquireCtx(ctx)
	if n != -1 {
		t.Fatalf("cancelled AcquireCtx returned name %d", n)
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrArenaFull) {
		t.Fatalf("cancelled AcquireCtx error %v, want both DeadlineExceeded and ErrArenaFull", err)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := a.AcquireCtx(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled AcquireCtx: %v", err)
	}

	// Non-full errors pass through untouched: a closed arena errors
	// immediately instead of backing off.
	a.Close()
	if _, err := a.AcquireCtx(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("AcquireCtx on closed arena: %v", err)
	}
}
