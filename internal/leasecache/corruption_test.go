package leasecache

import (
	"strings"
	"testing"
)

// corrupt plants a conservation violation: set a name's cached bit without
// any stack holding it, so the next Release of that name marks it twice.
func corrupt(c *Cache, name int) {
	setBit(c.cachedWord(name), uint64(1)<<(uint(name)&63))
}

// TestConservationPanicsWithoutHandler pins the strict default: without a
// corruption handler a violation panics at the point of detection, exactly
// as before the handler existed. (Under the race detector the panic is
// unconditional; this test covers both builds.)
func TestConservationPanicsWithoutHandler(t *testing.T) {
	c, _ := newSharded(256, 2, Config{Block: 8, Slots: 2})
	p := proc(1)
	n := c.Acquire(p)
	if n < 0 {
		t.Fatal("acquire failed")
	}
	corrupt(c, n)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("violation did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "cached twice") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	c.Release(p, n)
}

// TestConservationFailsGracefullyWithHandler: with a handler installed (and
// outside race builds) a violation latches pass-through mode — the handler
// fires once, Failed reports true, and subsequent operations keep working
// against the inner arena without touching the frozen stacks.
func TestConservationFailsGracefullyWithHandler(t *testing.T) {
	if strictConservation {
		t.Skip("race build: conservation violations always panic")
	}
	c, inner := newSharded(256, 2, Config{Block: 8, Slots: 2})
	var msgs []string
	c.SetOnCorruption(func(msg string) { msgs = append(msgs, msg) })

	p := proc(1)
	n := c.Acquire(p)
	if n < 0 {
		t.Fatal("acquire failed")
	}
	corrupt(c, n)
	c.Release(p, n) // detects the double mark; must not panic
	if !c.Failed() {
		t.Fatal("cache not failed after violation")
	}
	if len(msgs) != 1 || !strings.Contains(msgs[0], "cached twice") {
		t.Fatalf("handler calls %q, want one 'cached twice'", msgs)
	}
	// The violating release still returned the name to the inner pool.
	if inner.IsHeld(n) {
		t.Fatalf("name %d not released through the bypass", n)
	}

	// Pass-through mode: acquire/release keep functioning, no duplicates.
	seen := map[int]bool{}
	var names []int
	for range 64 {
		m := c.Acquire(p)
		if m < 0 {
			t.Fatal("acquire failed in pass-through mode")
		}
		if seen[m] {
			t.Fatalf("duplicate grant %d in pass-through mode", m)
		}
		seen[m] = true
		names = append(names, m)
	}
	for _, m := range names {
		c.Release(p, m)
	}
	if len(msgs) != 1 {
		t.Fatalf("handler re-fired: %q", msgs)
	}
}
