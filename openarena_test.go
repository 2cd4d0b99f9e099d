//go:build unix

package shmrename

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestOpenArenaLifecycle: create, churn, detach, reattach. Names held at
// Close stay claimed in the file and are visible to the next handle.
func TestOpenArenaLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ns")
	a, err := OpenArena(path, ArenaConfig{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Leased() {
		t.Fatal("mmap-backed arena must always be leased")
	}
	if a.Capacity() != 64 || a.NameBound() != 64 {
		t.Fatalf("geometry %d/%d, want 64/64", a.Capacity(), a.NameBound())
	}
	names, err := a.AcquireN(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Heartbeat(); got != len(names) {
		t.Fatalf("heartbeat renewed %d of %d", got, len(names))
	}
	// Default TTL is 1s: nothing is stale, and the pid oracle vouches for
	// this very process anyway.
	if got := a.SweepStale(); got != 0 {
		t.Fatalf("sweep reclaimed %d fresh leases", got)
	}
	if err := a.Release(names[0]); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Sweeps < 2 { // the on-open sweep plus SweepStale
		t.Fatalf("stats %+v, want the open-time sweep counted", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reattach: the remaining claims persisted across the detach.
	b, err := OpenArena(path, ArenaConfig{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if held := b.Held(); held != len(names)-1 {
		t.Fatalf("reattach sees %d held, want %d", held, len(names)-1)
	}
	for _, n := range names[1:] {
		if !b.impl.IsHeld(n) {
			t.Fatalf("name %d lost across detach", n)
		}
	}

	// A mismatched geometry must be refused, not reinterpreted.
	if _, err := OpenArena(path, ArenaConfig{Capacity: 128}); err == nil {
		t.Fatal("attach with mismatched capacity succeeded")
	}
}

// TestOpenArenaValidation: the persisted namespace is flat and always
// leased, so backend/probe knobs and malformed lease configs are rejected
// before the file is touched.
func TestOpenArenaValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []ArenaConfig{
		{Capacity: 0},
		{Capacity: 64, Backend: ArenaLevel},
		{Capacity: 64, Backend: ArenaBackendSharded},
		{Capacity: 64, Shards: 2},
		{Capacity: 64, Probe: ProbeBit},
		{Capacity: 64, Lease: &LeaseConfig{}},                  // TTL unset
		{Capacity: 64, Lease: &LeaseConfig{TTL: -time.Second}}, // negative
	}
	for i, cfg := range cases {
		if _, err := OpenArena(filepath.Join(dir, "ns"), cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
	// The rejected opens must not have created a half-written file that
	// poisons a subsequent valid open.
	a, err := OpenArena(filepath.Join(dir, "ns"), ArenaConfig{Capacity: 64})
	if err != nil {
		t.Fatalf("valid open after rejected configs: %v", err)
	}
	a.Close()
}

// TestOpenArenaRecovery drives crash recovery through the public wrapper:
// handle A's names outlive its Close, go stale, and handle B — sweeping
// with an always-dead oracle, since both handles share this process's pid
// — reclaims them and reuses the pool. (Real cross-process recovery, with
// SIGKILLed children and the kill(pid, 0) oracle, is covered by
// internal/persist's TestPersistCrossProcessKill.)
func TestOpenArenaRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ns")
	dead := func(uint64) bool { return false }
	a, err := OpenArena(path, ArenaConfig{Capacity: 64, Lease: &LeaseConfig{TTL: time.Millisecond, Alive: dead}})
	if err != nil {
		t.Fatal(err)
	}
	names, err := a.AcquireN(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(10 * time.Millisecond) // the 1ms leases lapse
	b, err := OpenArena(path, ArenaConfig{Capacity: 64, Lease: &LeaseConfig{TTL: time.Millisecond, Alive: dead}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// The open-time sweep already ran with everything stale; between it and
	// an explicit SweepStale, every abandoned lease must be back in the pool.
	b.SweepStale()
	if held := b.Held(); held != 0 {
		t.Fatalf("%d abandoned names still held after recovery", held)
	}
	if st := b.Stats(); st.Reclaimed != int64(len(names)) {
		t.Fatalf("stats %+v, want Reclaimed=%d", st, len(names))
	}
	got, err := b.AcquireN(64)
	if err != nil {
		t.Fatalf("pool not whole after recovery: %v", err)
	}
	if len(got) != 64 {
		t.Fatalf("re-granted %d of 64", len(got))
	}
}

// TestOpenArenaFullSentinel: the -1 error-path contract holds for the
// mmap-backed backend too.
func TestOpenArenaFullSentinel(t *testing.T) {
	a, err := OpenArena(filepath.Join(t.TempDir(), "ns"), ArenaConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < a.NameBound(); i++ {
		if _, err := a.Acquire(); err != nil {
			break
		}
	}
	n, err := a.Acquire()
	if !errors.Is(err, ErrArenaFull) || n != -1 {
		t.Fatalf("acquire on full arena = (%d, %v), want (-1, ErrArenaFull)", n, err)
	}
}
