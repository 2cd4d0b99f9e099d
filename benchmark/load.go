package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"shmrename"
	"shmrename/internal/metrics"
)

// target is what one load goroutine drives. *shmrename.Arena satisfies it,
// and so do the traced stack's per-worker handles and the no-op target.
type target interface {
	Acquire() (int, error)
	Release(name int) error
	Heartbeat() int
}

// system is one arena under test as the load phases see it.
type system interface {
	// handle returns the target load goroutine worker drives.
	handle(worker int) target
	// footprint samples the resident bytes and the resident capacity.
	footprint() (resident int64, capNow int)
}

// publicSystem is the public Arena: every load goroutine calls it directly.
type publicSystem struct{ *shmrename.Arena }

func (s publicSystem) handle(int) target { return s.Arena }

func (s publicSystem) footprint() (int64, int) {
	st := s.Stats()
	return st.ResidentBytes, st.CapacityNow
}

// windows is the number of equal latency windows an open loop's measured
// span is cut into; per-window medians make the p50s robust to one stall.
const windows = 3

// sampleEvery is the interval at which the open loop samples live holders,
// resident bytes and resident capacity.
const sampleEvery = 50 * time.Millisecond

// failedLatency is recorded for an acquire that failed: a failure misses
// every latency limit.
const failedLatency = math.MaxInt64 / 4

// openResult is what one open-loop phase measured.
type openResult struct {
	acqP50, relP50 []float64 // per-window median latency, ns
	late           metrics.Histogram
	acqTail        metrics.Histogram
	nameSpan       float64
	meanLive       float64
	meanResident   float64
	meanCapNow     float64
	attempted      int64
	held           []int // names still held when the phase ended
}

// expiry is one pending release of the open loop.
type expiry struct {
	due  int64
	name int
}

// expiryHeap is a min-heap of pending releases by due time. It is sized up
// front, so pushes never allocate while the pacer runs.
type expiryHeap []expiry

func (h *expiryHeap) push(e expiry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].due <= s[i].due {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *expiryHeap) pop() expiry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].due < s[c].due {
			c++
		}
		if s[i].due <= s[c].due {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// openLoop replays the schedule against the system from one pacer
// goroutine. Arrivals acquire, expiring holds release, and heartbeats and
// samples are events of the same schedule. The pacer spins on the clock
// rather than yielding (see README.md), and every latency runs from the
// instant the event was due, so a stall is charged to every event it
// delayed. held are the names prefilled at set-up, releasing at
// s.initial. Events due from discard on are measured.
func openLoop(sys system, led *ledger, s *schedule, held []int, dur, discard, heartbeat time.Duration) openResult {
	h := sys.handle(0)
	var res openResult
	pending := make(expiryHeap, 0, len(held)+len(s.arrive))
	for i, n := range held {
		pending.push(expiry{s.initial[i], n})
	}
	end, skip := int64(dur), int64(discard)
	span := end - skip
	window := func(due int64) int { return min(windows-1, int((due-skip)*windows/span)) }

	// Size every per-window sample slice from the schedule.
	acqN, relN := make([]int, windows), make([]int, windows)
	for i, at := range s.arrive {
		if at >= skip {
			acqN[window(at)]++
		}
		if e := s.expire[i]; e >= skip && e < end {
			relN[window(e)]++
		}
	}
	for _, e := range s.initial {
		if e >= skip && e < end {
			relN[window(e)]++
		}
	}
	acqLat, relLat := make([][]int64, windows), make([][]int64, windows)
	for k := range windows {
		acqLat[k] = make([]int64, 0, acqN[k])
		relLat[k] = make([]int64, 0, relN[k])
	}
	names := make([]float64, 0, len(s.arrive))

	const never = math.MaxInt64
	nextBeat := int64(never)
	if heartbeat > 0 {
		nextBeat = int64(heartbeat)
	}
	nextSample := skip
	var samples int
	var sumLive, sumResident, sumCap float64

	base := time.Now()
	i := 0
	for {
		due, ev := int64(never), 0
		if i < len(s.arrive) {
			due, ev = s.arrive[i], 1
		}
		if len(pending) > 0 && pending[0].due < due {
			due, ev = pending[0].due, 2
		}
		if nextBeat < due {
			due, ev = nextBeat, 3
		}
		if nextSample < due {
			due, ev = nextSample, 4
		}
		if due >= end {
			break
		}
		now := int64(time.Since(base))
		for now < due {
			now = int64(time.Since(base))
		}
		measured := due >= skip
		if measured {
			res.late.Record(now - due)
		}
		switch ev {
		case 1:
			res.attempted++
			name, err := h.Acquire()
			lat := int64(time.Since(base)) - due
			if err != nil {
				led.acquireFailed(err, 1)
				lat = failedLatency
			} else {
				led.granted(name)
				pending.push(expiry{s.expire[i], name})
				if measured {
					names = append(names, float64(name))
				}
			}
			if measured {
				acqLat[window(due)] = append(acqLat[window(due)], lat)
				res.acqTail.Record(lat)
			}
			i++
		case 2:
			e := pending.pop()
			led.releasing(e.name)
			err := h.Release(e.name)
			lat := int64(time.Since(base)) - due
			if err != nil {
				led.releaseFailed(e.name, err)
			}
			if measured {
				relLat[window(due)] = append(relLat[window(due)], lat)
			}
		case 3:
			h.Heartbeat()
			nextBeat += int64(heartbeat)
		case 4:
			resident, capNow := sys.footprint()
			sumLive += float64(led.live())
			sumResident += float64(resident)
			sumCap += float64(capNow)
			samples++
			nextSample += int64(sampleEvery)
		}
	}

	for k := range windows {
		res.acqP50 = append(res.acqP50, float64(metrics.Summarize(acqLat[k]).P50))
		res.relP50 = append(res.relP50, float64(metrics.Summarize(relLat[k]).P50))
	}
	if samples > 0 {
		res.meanLive = sumLive / float64(samples)
		res.meanResident = sumResident / float64(samples)
		res.meanCapNow = sumCap / float64(samples)
	}
	slices.Sort(names)
	res.nameSpan = ratio(quantile(names, 0.999)+1, res.meanLive)
	for _, e := range pending {
		res.held = append(res.held, e.name)
	}
	return res
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	pairsPerSec float64
	attempted   int64
	held        [][]int // each worker's names when the phase ended
	acq, rel    accum   // bracketed call durations, when requested
}

// closedCfg is the shape of a closed-loop phase.
type closedCfg struct {
	dur       time.Duration
	pop       func(frac float64) int // population to track; nil holds it constant
	heartbeat time.Duration          // goroutine 0's heartbeat interval; 0 for none
	seed      uint64
	bracket   bool // time every call
}

// closedLoop runs len(held) goroutines for c.dur, each starting with its
// share of held names. Each iteration releases a uniformly random held
// name and acquires a new one, a memoryless hold at a constant population.
// When c.pop is non-nil the population instead follows pop(elapsed/dur),
// split evenly across the goroutines, which acquire or release alone to
// track it. Throughput counts two operations as one pair.
func closedLoop(sys system, led *ledger, held [][]int, c closedCfg) closedResult {
	workers := len(held)
	parts := make([]closedPart, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w], held[w] = closedWorker(sys.handle(w), led, held[w], w, workers, c, start)
		}()
	}
	close(start)
	wg.Wait()

	var res closedResult
	var ops int64
	var elapsed time.Duration
	for _, pt := range parts {
		ops += pt.ops
		res.attempted += pt.attempted
		elapsed = max(elapsed, pt.elapsed)
		res.acq.merge(pt.acq)
		res.rel.merge(pt.rel)
	}
	res.pairsPerSec = float64(ops) / 2 / elapsed.Seconds()
	res.held = held
	return res
}

// closedPart is what one closed-loop goroutine counted.
type closedPart struct {
	ops, attempted int64
	elapsed        time.Duration
	acq, rel       accum
}

// closedWorker is one goroutine of closedLoop. Its counters stay in
// locals until it returns: goroutines bumping neighbouring words of a
// shared slice would contend on one cache line and measure that instead.
func closedWorker(h target, led *ledger, mine []int, w, workers int, c closedCfg, start <-chan struct{}) (closedPart, []int) {
	r := rand.New(rand.NewPCG(c.seed, uint64(w)))
	want := len(mine)
	var ops, attempted int64
	var acq, rel accum
	var t0 time.Time
	<-start
	begin := time.Now()
	nextBeat := c.heartbeat
	for it := 0; ; it++ {
		if it&63 == 0 {
			el := time.Since(begin)
			if el >= c.dur {
				return closedPart{ops, attempted, el, acq, rel}, mine
			}
			if w == 0 && c.heartbeat > 0 && el >= nextBeat {
				h.Heartbeat()
				nextBeat += c.heartbeat
			}
			if c.pop != nil {
				want = share(c.pop(float64(el)/float64(c.dur)), w, workers)
			}
		}
		// At the target population: release then acquire. Off it: only the
		// one that moves toward it.
		n := len(mine)
		if n > 0 && n >= want {
			j := r.IntN(n)
			name := mine[j]
			mine[j] = mine[n-1]
			mine = mine[:n-1]
			led.releasing(name)
			if c.bracket {
				t0 = time.Now()
			}
			err := h.Release(name)
			if c.bracket {
				rel.add(int64(time.Since(t0)))
			}
			if err != nil {
				led.releaseFailed(name, err)
			}
			ops++
		}
		if n <= want {
			if c.bracket {
				t0 = time.Now()
			}
			name, err := h.Acquire()
			if c.bracket {
				acq.add(int64(time.Since(t0)))
			}
			attempted++
			ops++
			if err != nil {
				led.acquireFailed(err, workers)
			} else {
				led.granted(name)
				mine = append(mine, name)
			}
		}
	}
}

// share is worker w's part of total split across workers.
func share(total, w, workers int) int {
	n := total / workers
	if w < total%workers {
		n++
	}
	return n
}

// split deals names round-robin across workers, leaving every slice room
// to grow to its share of maxPop.
func split(names []int, workers, maxPop int) [][]int {
	out := make([][]int, workers)
	for w := range out {
		out[w] = make([]int, 0, share(maxPop, w, workers)+64)
	}
	for i, n := range names {
		out[i%workers] = append(out[i%workers], n)
	}
	return out
}

// noopTarget is a no-op arena for one goroutine: a stack of free names.
// The closed loop against it measures the load generator's own ceiling.
// The padding keeps two goroutines' stacks off one cache line.
type noopTarget struct {
	free []int
	_    [40]byte
}

func (t *noopTarget) Acquire() (int, error) {
	n := len(t.free) - 1
	name := t.free[n]
	t.free = t.free[:n]
	return name, nil
}

func (t *noopTarget) Release(name int) error {
	t.free = append(t.free, name)
	return nil
}

func (t *noopTarget) Heartbeat() int { return 0 }

type noopSystem []*noopTarget

func (s noopSystem) handle(w int) target     { return s[w] }
func (s noopSystem) footprint() (int64, int) { return 0, 0 }

// noopPairsPerSec runs the closed loop against no-op targets: the most
// pairs per second the generator can drive, ledger included.
func noopPairsPerSec(workers, population int, dur time.Duration, seed uint64) float64 {
	m := population/workers + 1
	sys := make(noopSystem, workers)
	held := make([][]int, workers)
	led := newLedger(2*m*workers, 2*m*workers)
	for w := range workers {
		base := 2 * m * w
		sys[w] = &noopTarget{free: make([]int, 0, 2*m)}
		held[w] = make([]int, 0, 2*m)
		for n := base; n < base+m; n++ {
			held[w] = append(held[w], n)
			led.granted(n)
			sys[w].free = append(sys[w].free, n+m)
		}
	}
	return closedLoop(sys, led, held, closedCfg{dur: dur, seed: seed}).pairsPerSec
}
