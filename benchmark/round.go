package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"shmrename"
)

// arenaUnderTest is one freshly built arena of a round, public or traced.
type arenaUnderTest interface {
	system
	NameBound() int
	Capacity() int
	Held() int
	Close() error
	// audit returns the violations the arena's own counters show after
	// Close: names reclaimed from live holders, quarantined names, or a
	// health verdict other than healthy. Nobody crashes and nothing is
	// corrupted in this benchmark, so each is a fault.
	audit() []string
}

func (s publicSystem) audit() []string {
	var out []string
	st := s.Stats()
	if st.Reclaimed != 0 {
		out = append(out, fmt.Sprintf("recovery reclaimed %d names from live holders", st.Reclaimed))
	}
	if st.Quarantined != 0 {
		out = append(out, fmt.Sprintf("integrity quarantined %d names", st.Quarantined))
	}
	if h := s.Health(); h != shmrename.Healthy {
		out = append(out, fmt.Sprintf("arena health %v", h))
	}
	return out
}

// builder builds a fresh arena and prefills it with n holders, returning
// their names. The benchmark times it as set-up.
type builder func(n int) (arenaUnderTest, []int, error)

// buildPublic is the builder of the public Arena.
func buildPublic(cfg shmrename.ArenaConfig) builder {
	return func(n int) (arenaUnderTest, []int, error) {
		a, err := shmrename.NewArena(cfg)
		if err != nil {
			return nil, nil, err
		}
		names, err := prefill(a, n)
		if err != nil {
			a.Close()
			return nil, nil, err
		}
		return publicSystem{a}, names, nil
	}
}

// prefill acquires n names from t.
func prefill(t target, n int) ([]int, error) {
	names := make([]int, 0, n)
	for range n {
		name, err := t.Acquire()
		if err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		names = append(names, name)
	}
	return names, nil
}

// setupsPerPoint is how many arenas a round builds at each of its three
// set-up points: before the open loop, and after each of the first two
// phases. Only the first point's last arena is driven; the others are
// closed at once. The round keeps its fastest build: on a shared host a
// busy neighbour on the same core nearly doubles single builds for
// seconds at a time, and the points spread the builds over the round so
// that some miss it (README.md).
const setupsPerPoint = 16

// timeSetups builds k arenas of n holders, closing all but the last, and
// returns the last one with the fastest build's time in seconds.
func timeSetups(build builder, n, k int) (a arenaUnderTest, names []int, fastest float64, err error) {
	fastest = math.Inf(1)
	for range k {
		if a != nil {
			a.Close()
		}
		start := time.Now()
		a, names, err = build(n)
		if err != nil {
			return nil, nil, 0, err
		}
		fastest = min(fastest, time.Since(start).Seconds())
	}
	return a, names, fastest, nil
}

// roundResult is what one round measured.
type roundResult struct {
	setup                        float64 // seconds, the round's fastest build
	open                         openResult
	pairs, pairs1w               float64
	attempted, failed, falseFull int64
	faults                       []string
}

// phases splits a round of length T: 60% open loop (its first quarter,
// at most 0.5 s, is warm-up), then 20% each closed at nproc goroutines
// and at one.
func phases(T time.Duration) (open, discard, closed time.Duration) {
	open, closed = T*6/10, T*2/10
	return open, min(500*time.Millisecond, open/4), closed
}

// runRound builds a fresh arena and drives it through the open loop and
// the two closed phases, checking every grant against a ledger, then
// releases every name and audits the arena. Set-up is timed at three
// points of the round (setupsPerPoint). observe, when non-nil, is called
// with the driven arena after the set-up and after each phase.
func runRound(w *workload, seed uint64, round int, T time.Duration, workers int, build builder, observe func(phase string, a arenaUnderTest)) roundResult {
	if observe == nil {
		observe = func(string, arenaUnderTest) {}
	}
	openDur, discard, closedDur := phases(T)
	sched := w.schedule(seed, round, openDur, discard)
	var res roundResult
	a, names, fastest, err := timeSetups(build, len(sched.initial), setupsPerPoint)
	if err != nil {
		res.faults = append(res.faults, "set-up: "+err.Error())
		return res
	}
	res.setup = fastest
	spareSetups := func() {
		spare, _, fastest, err := timeSetups(build, len(sched.initial), setupsPerPoint)
		if err != nil {
			res.faults = append(res.faults, "set-up: "+err.Error())
			return
		}
		spare.Close()
		res.setup = min(res.setup, fastest)
	}
	led := newLedger(a.NameBound(), a.Capacity())
	for _, n := range names {
		led.granted(n)
	}
	res.attempted = int64(len(names))
	beat, pop, maxPop := w.heartbeat(), w.closedPopulation(), w.population(0.5)
	phaseSeed := seed ^ uint64(round)<<32

	observe("start", a)
	runtime.GC()
	res.open = openLoop(a, led, &sched, names, openDur, discard, beat)
	res.attempted += res.open.attempted
	observe("open", a)
	spareSetups()

	h := a.handle(0)
	held, n := settle(h, led, res.open.held, w.population(0))
	res.attempted += n
	runtime.GC()
	c := closedLoop(a, led, split(held, workers, maxPop), closedCfg{closedDur, pop, beat, phaseSeed ^ 1, false})
	res.pairs = c.pairsPerSec
	res.attempted += c.attempted
	observe("closedN", a)
	spareSetups()

	held, n = settle(h, led, joined(c.held), w.population(0))
	res.attempted += n
	runtime.GC()
	c = closedLoop(a, led, split(held, 1, maxPop), closedCfg{closedDur, pop, beat, phaseSeed ^ 2, false})
	res.pairs1w = c.pairsPerSec
	res.attempted += c.attempted
	observe("closed1", a)

	res.faults = append(res.faults, teardown(a, led, joined(c.held))...)
	res.failed, res.falseFull = led.failed.Load(), led.falseFull.Load()
	return res
}

// settle acquires or releases through h until exactly n names are held,
// returning them and the number of acquires attempted.
func settle(h target, led *ledger, held []int, n int) ([]int, int64) {
	var attempted int64
	for len(held) > n {
		name := held[len(held)-1]
		held = held[:len(held)-1]
		led.releasing(name)
		if err := h.Release(name); err != nil {
			led.releaseFailed(name, err)
		}
	}
	for len(held) < n {
		attempted++
		name, err := h.Acquire()
		if err != nil {
			led.acquireFailed(err, 1)
			continue
		}
		led.granted(name)
		held = append(held, name)
	}
	return held, attempted
}

// joined concatenates the workers' held names.
func joined(held [][]int) []int {
	var out []int
	for _, h := range held {
		out = append(out, h...)
	}
	return out
}

// teardown releases every held name, checks that the arena and the
// ledger both see no holder left, closes the arena and audits it. It
// returns every fault the round recorded.
func teardown(a arenaUnderTest, led *ledger, held []int) []string {
	h := a.handle(0)
	for _, name := range held {
		led.releasing(name)
		if err := h.Release(name); err != nil {
			led.releaseFailed(name, err)
		}
	}
	var faults []string
	if n := a.Held(); n != 0 {
		faults = append(faults, fmt.Sprintf("arena reports %d names held after every holder released", n))
	}
	if n := led.live(); n != 0 {
		faults = append(faults, fmt.Sprintf("ledger holds %d names after every holder released", n))
	}
	if err := a.Close(); err != nil {
		faults = append(faults, fmt.Sprintf("close: %v", err))
	}
	faults = append(faults, a.audit()...)
	return append(faults, led.violations()...)
}

// bracketedCell builds an arena and runs a single-goroutine closed loop on
// it for dur, timing every call. The round result carries the cell's
// operation counts and faults.
func bracketedCell(w *workload, seed uint64, dur time.Duration, build builder) (acq, rel accum, res roundResult) {
	a, names, err := build(w.population(0))
	if err != nil {
		res.faults = []string{"set-up: " + err.Error()}
		return acq, rel, res
	}
	led := newLedger(a.NameBound(), a.Capacity())
	for _, n := range names {
		led.granted(n)
	}
	c := closedLoop(a, led, split(names, 1, w.population(0.5)), closedCfg{dur, w.closedPopulation(), w.heartbeat(), seed, true})
	res.faults = teardown(a, led, joined(c.held))
	res.attempted = int64(len(names)) + c.attempted
	res.failed, res.falseFull = led.failed.Load(), led.falseFull.Load()
	return c.acq, c.rel, res
}
