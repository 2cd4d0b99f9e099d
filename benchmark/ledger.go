package main

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"shmrename"
)

// ledger is the benchmark's own record of which names are granted: one
// atomic bit per name below the arena's NameBound. It catches a duplicate
// grant the moment it happens, and a release the arena refuses, instead of
// trusting the arena's own bookkeeping.
//
// Each word sits on its own cache line, as the arenas' padded bitmaps do,
// so goroutines recording different names rarely contend in the ledger.
// Bits flip through Load+CAS loops rather than the value-returning
// atomic.Uint64.Or/And, which Go 1.24.0 miscompiles on amd64.
type ledger struct {
	bits     []paddedWord
	bound    int
	capacity int

	failed    atomic.Int64 // acquires that returned an error
	falseFull atomic.Int64 // ErrArenaFull while live < capacity - workers

	mu     sync.Mutex
	faults []string // correctness violations; any one fails the run
}

// paddedWord is one ledger word alone on a cache line.
type paddedWord struct {
	atomic.Uint64
	_ [56]byte
}

func newLedger(bound, capacity int) *ledger {
	return &ledger{
		bits:     make([]paddedWord, (bound+63)/64),
		bound:    bound,
		capacity: capacity,
	}
}

// fault records a correctness violation.
func (l *ledger) fault(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.faults) < 16 {
		l.faults = append(l.faults, fmt.Sprintf(format, args...))
	}
}

// violations returns the recorded correctness violations.
func (l *ledger) violations() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.faults...)
}

// granted records a successful acquire of name. A name outside the bound
// or already granted is a fault.
func (l *ledger) granted(name int) {
	if name < 0 || name >= l.bound {
		l.fault("acquire returned name %d outside [0, %d)", name, l.bound)
		return
	}
	w, bit := &l.bits[name>>6], uint64(1)<<(uint(name)&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			l.fault("duplicate grant of name %d", name)
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// releasing removes name from the ledger before it is handed back, so a
// regrant racing the release is not mistaken for a duplicate.
func (l *ledger) releasing(name int) {
	w, bit := &l.bits[name>>6], uint64(1)<<(uint(name)&63)
	for {
		old := w.Load()
		if old&bit == 0 {
			l.fault("release of name %d, which the ledger does not hold", name)
			return
		}
		if w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// live counts the granted names (a snapshot; off the hot path).
func (l *ledger) live() int {
	n := 0
	for i := range l.bits {
		n += bits.OnesCount64(l.bits[i].Load())
	}
	return n
}

// acquireFailed classifies a failed acquire made while workers goroutines
// were acquiring. ErrArenaFull with fewer than capacity - workers names
// live is a false full: every worker could hold one claim in flight, but
// no more names than that are unaccounted for. Any other error is a fault.
func (l *ledger) acquireFailed(err error, workers int) {
	l.failed.Add(1)
	if !errors.Is(err, shmrename.ErrArenaFull) {
		l.fault("acquire: %v", err)
		return
	}
	if l.live() < l.capacity-workers {
		l.falseFull.Add(1)
	}
}

// releaseFailed records a release the arena refused. The benchmark only
// releases names the ledger granted, so ErrNotHeld, ErrCorrupted or any
// other error is a fault.
func (l *ledger) releaseFailed(name int, err error) {
	l.fault("release of name %d: %v", name, err)
}
