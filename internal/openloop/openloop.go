// Package openloop generates open-loop renaming load: acquire requests
// arrive on a clock-driven schedule — Poisson or bursty — at a target
// rate, independent of how fast the arena serves them.
//
// # Why open-loop
//
// Every closed-loop benchmark (the Go benchmarks) lets a
// slow operation delay the next request, so the load generator
// involuntarily coordinates with the system under test and the recorded
// tail hides exactly the latencies a production arrival stream would
// suffer — the coordinated-omission trap. Here arrivals are scheduled
// first and latency is measured from the scheduled arrival time to
// acquire completion: a stall makes every arrival scheduled during the
// stall pay its queueing delay, which is what a p99 under independent
// arrival traffic means.
//
// Each worker thins the target rate into its own arrival stream (a
// superposition of independent Poisson processes is Poisson, so per-worker
// exponential gaps at rate/workers compose to the target) and records
// into its own metrics.Histogram; Run merges them. The saturation sweep
// replays the same schedule shape at increasing rates and Knee finds the
// last rate the arena still sustains.
package openloop

import (
	"math"
	"runtime"
	"time"

	"shmrename/internal/metrics"
	"shmrename/internal/prng"
)

// Target is the surface under load: the acquire/release pair of the
// public *shmrename.Arena (which satisfies it structurally) or an
// internal arena adapted with WrapArena.
type Target interface {
	Acquire() (int, error)
	Release(int) error
}

// Arrival selects the shape of the arrival schedule.
type Arrival uint8

// Arrival schedules.
const (
	// Poisson draws independent exponential inter-arrival gaps: the
	// memoryless stream that models aggregate production traffic.
	Poisson Arrival = iota
	// Bursty delivers arrivals in back-to-back bursts of Burst requests,
	// with exponential gaps between bursts stretched so the mean rate
	// still meets the target — the worst case for a renaming arena, since
	// a whole burst contends for free slots at once.
	Bursty
)

// String returns the report label of the arrival shape.
func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	default:
		return "arrival(?)"
	}
}

// Config parameterizes one open-loop run.
type Config struct {
	// Rate is the target arrival rate in acquires per second (required).
	Rate float64
	// Arrivals is the total number of scheduled arrivals (required): the
	// run lasts about Arrivals/Rate seconds.
	Arrivals int
	// Workers is the number of service goroutines splitting the stream.
	// Default GOMAXPROCS.
	Workers int
	// Arrival selects the schedule shape. Default Poisson.
	Arrival Arrival
	// Burst is the arrivals-per-burst of the Bursty shape. Default 16.
	Burst int
	// Seed drives the schedule's randomness.
	Seed uint64
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Burst <= 0 {
		c.Burst = 16
	}
}

// Result aggregates one open-loop run.
type Result struct {
	// Offered is the number of scheduled arrivals (Config.Arrivals).
	Offered int
	// Served counts acquires that obtained a name.
	Served int
	// Dropped counts acquires the arena rejected (arena full).
	Dropped int
	// Elapsed is the wall-clock span from the first scheduled arrival to
	// the last completion.
	Elapsed time.Duration
	// AchievedRate is Served/Elapsed in acquires per second.
	AchievedRate float64
	// Latency is the merged scheduled-arrival→completion histogram, in
	// nanoseconds. Dropped arrivals record their rejection latency too:
	// a drop is not free at the tail.
	Latency metrics.Histogram
}

// expGap draws an exponential gap (nanoseconds) at the given mean.
func expGap(r *prng.Rand, meanNs float64) int64 {
	// Inverse-transform sampling; 1-u keeps the log argument in (0, 1].
	u := r.Float64()
	return int64(-math.Log(1-u) * meanNs)
}

// worker runs one thinned arrival stream against the target, recording
// into its own histogram: zero cross-worker coordination on the hot path.
func worker(t Target, cfg Config, id, arrivals int, base time.Time, h *metrics.Histogram) (served, dropped int) {
	r := prng.NewStream(cfg.Seed, id)
	meanNs := 1e9 / (cfg.Rate / float64(cfg.Workers))
	next := int64(0) // scheduled offset from base, ns
	for i := 0; i < arrivals; i++ {
		switch cfg.Arrival {
		case Bursty:
			// Gaps only between bursts, stretched by the burst size so the
			// mean rate still meets the target.
			if i%cfg.Burst == 0 {
				next += expGap(r, meanNs*float64(cfg.Burst))
			}
		default:
			next += expGap(r, meanNs)
		}
		// Pace to the schedule. Sleep for coarse waits; hand the processor
		// over (not a spin — the arena's workers need the cores) until the
		// scheduled instant for sub-millisecond precision.
		for {
			ahead := next - time.Since(base).Nanoseconds()
			if ahead <= 0 {
				break
			}
			if ahead > int64(time.Millisecond) {
				time.Sleep(time.Duration(ahead - int64(time.Millisecond)))
			} else {
				runtime.Gosched()
			}
		}
		// Open-loop latency: from the *scheduled* arrival, so queueing
		// delay behind a stalled arena is charged to every request the
		// stall delayed.
		name, err := t.Acquire()
		h.Record(time.Since(base).Nanoseconds() - next)
		if err != nil {
			dropped++
			continue
		}
		served++
		_ = t.Release(name)
	}
	return served, dropped
}

// Run executes one open-loop run against the target.
func Run(t Target, cfg Config) Result {
	cfg.fill()
	if cfg.Rate <= 0 || cfg.Arrivals <= 0 {
		panic("openloop: Config.Rate and Config.Arrivals must be positive")
	}
	type partial struct {
		served, dropped int
		h               metrics.Histogram
	}
	parts := make([]partial, cfg.Workers)
	base := time.Now()
	done := make(chan int, cfg.Workers)
	per := cfg.Arrivals / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		n := per
		if w == 0 {
			n += cfg.Arrivals % cfg.Workers
		}
		go func(w, n int) {
			parts[w].served, parts[w].dropped = worker(t, cfg, w, n, base, &parts[w].h)
			done <- w
		}(w, n)
	}
	for range parts {
		<-done
	}
	res := Result{Offered: cfg.Arrivals, Elapsed: time.Since(base)}
	for i := range parts {
		res.Served += parts[i].served
		res.Dropped += parts[i].dropped
		res.Latency.Merge(&parts[i].h)
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.AchievedRate = float64(res.Served) / s
	}
	return res
}

// SweepPoint is one rate of a saturation sweep.
type SweepPoint struct {
	// Rate is the offered arrival rate, acquires per second.
	Rate float64
	// Result is the run at that rate.
	Result
}

// Sweep runs the same schedule shape at each offered rate in order,
// holding the arrival count fixed, and returns one point per rate.
func Sweep(t Target, base Config, rates []float64) []SweepPoint {
	out := make([]SweepPoint, 0, len(rates))
	for _, rate := range rates {
		cfg := base
		cfg.Rate = rate
		out = append(out, SweepPoint{Rate: rate, Result: Run(t, cfg)})
	}
	return out
}

// KneeFraction is the sustained-throughput bar of Knee: a sweep point
// below this fraction of its offered rate is past the knee.
const KneeFraction = 0.9

// Knee returns the index of the last sweep point whose achieved rate
// sustains at least KneeFraction of the offered rate — the throughput
// knee — or -1 when even the first point falls short.
func Knee(points []SweepPoint) int {
	knee := -1
	for i, p := range points {
		if p.AchievedRate >= KneeFraction*p.Rate {
			knee = i
		}
	}
	return knee
}
