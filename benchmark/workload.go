package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"shmrename"
)

// meanHold is the mean of every workload's exponential hold time. With it,
// Little's law gives the live population: rate × meanHold.
const meanHold = 20 * time.Millisecond

// leaseSpec is the crash-recovery and self-healing setting of a leased
// workload: lease TTL, background reaper and scrub intervals, and the
// interval at which the benchmark's client heartbeats.
type leaseSpec struct {
	ttl, reaper, scrub, heartbeat time.Duration
}

// workload is one arena configuration driven by one traffic shape. The
// public ArenaConfig (untraced runs) and the internally constructed stack
// (traced run) are both derived from these fields, so the two cannot
// drift apart.
type workload struct {
	name string
	why  string
	// backend is the arena backend's registry name; the public
	// ArenaBackend constants spell the same names.
	backend  string
	capacity int
	// cacheBlock is ArenaConfig.LeaseBlocks; 0 leaves the lease cache off.
	cacheBlock int
	lease      *leaseSpec
	// minRate and maxRate bound the Poisson arrival rate in arrivals per
	// second. They differ only for a diurnal workload, whose rate runs one
	// sinusoid period from minRate up to maxRate and back per phase.
	minRate, maxRate float64
}

// workloads are the benchmark's traffic mixes. Each stresses a different
// layer below the public Arena; see README.md for why each was chosen.
var workloads = []*workload{
	{
		name:     "steady",
		why:      "default level arena at 25% occupancy: the one-CAS word claim does the work and cache, shard, recovery, integrity and elastic layers do none",
		backend:  string(shmrename.ArenaLevel),
		capacity: 4096,
		minRate:  50000, maxRate: 50000,
	},
	{
		name:     "tight",
		why:      "sharded arena at 83% occupancy: the shard frontend routes every call and the word claim engine works among mostly full words",
		backend:  string(shmrename.ArenaBackendSharded),
		capacity: 1200,
		minRate:  50000, maxRate: 50000,
	},
	{
		name:       "cached-leased",
		why:        "lease cache serves acquires with zero shared steps while lease stamps, heartbeats, sweeps and scrubs run the maintenance layers",
		backend:    string(shmrename.ArenaBackendSharded),
		capacity:   4096,
		cacheBlock: 64,
		lease: &leaseSpec{
			ttl:       time.Second,
			reaper:    100 * time.Millisecond,
			scrub:     50 * time.Millisecond,
			heartbeat: 250 * time.Millisecond,
		},
		minRate: 50000, maxRate: 50000,
	},
	{
		name:     "diurnal",
		why:      "elastic arena whose live population swings 200 to 2000 and back: the level ladder grows and drains, so resident memory and resizes show",
		backend:  string(shmrename.ArenaElastic),
		capacity: 4096,
		minRate:  10000, maxRate: 100000,
	},
}

// lookupWorkload returns the workload with the given name, or nil.
func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// publicConfig is the workload's configuration of the public Arena.
func (w *workload) publicConfig(seed uint64, shards int) shmrename.ArenaConfig {
	cfg := shmrename.ArenaConfig{
		Capacity:    w.capacity,
		Backend:     shmrename.ArenaBackend(w.backend),
		LeaseBlocks: w.cacheBlock,
		Seed:        seed,
	}
	if cfg.Backend == shmrename.ArenaBackendSharded {
		cfg.Shards = shards
	}
	if l := w.lease; l != nil {
		cfg.Lease = &shmrename.LeaseConfig{TTL: l.ttl, Reaper: l.reaper}
		cfg.Integrity = &shmrename.IntegrityConfig{ScrubInterval: l.scrub, Quarantine: true}
	}
	return cfg
}

// rate is the arrival rate at fraction frac ∈ [0, 1] of a phase: constant,
// or one cosine period starting and ending at minRate.
func (w *workload) rate(frac float64) float64 {
	mid, amp := (w.maxRate+w.minRate)/2, (w.maxRate-w.minRate)/2
	return mid - amp*math.Cos(2*math.Pi*frac)
}

// population is the live holder count Little's law gives at fraction frac
// of a phase.
func (w *workload) population(frac float64) int {
	return int(math.Round(w.rate(frac) * meanHold.Seconds()))
}

// closedPopulation is the population a closed phase tracks: nil (hold
// population(0) constant) unless the workload's rate varies.
func (w *workload) closedPopulation() func(frac float64) int {
	if w.minRate == w.maxRate {
		return nil
	}
	return w.population
}

// heartbeat is the client heartbeat interval; 0 without leases.
func (w *workload) heartbeat() time.Duration {
	if w.lease == nil {
		return 0
	}
	return w.lease.heartbeat
}

// schedule is the open-loop input of one round: the holders prefilled at
// set-up, and every later arrival with the instant its hold expires. All
// offsets are nanoseconds from the start of the open loop.
type schedule struct {
	initial []int64 // release offsets of the prefilled holders
	arrive  []int64 // arrival offsets, ascending
	expire  []int64 // expire[i] = arrive[i] + hold of arrival i
}

// schedule draws the open-loop input of one round of dur, whose first
// discard is warm-up. Arrivals are Poisson (thinned for a varying rate),
// holds exponential with mean meanHold; prefilled holders get exponential
// residual holds, which memorylessness makes the steady-state ones. The
// same (seed, round) gives the same schedule.
func (w *workload) schedule(seed uint64, round int, dur, discard time.Duration) schedule {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r := rand.New(rand.NewPCG(seed, h.Sum64()^uint64(round)))
	hold := func() int64 { return int64(r.ExpFloat64() * float64(meanHold)) }

	var s schedule
	for range w.population(0) {
		s.initial = append(s.initial, hold())
	}
	n := int(w.maxRate * dur.Seconds() * 1.1)
	s.arrive = make([]int64, 0, n)
	s.expire = make([]int64, 0, n)
	span := float64(dur - discard)
	for t := 0.0; ; {
		t += r.ExpFloat64() / w.maxRate * 1e9
		if t >= float64(dur) {
			break
		}
		frac := max(0, (t-float64(discard))/span)
		if r.Float64()*w.maxRate >= w.rate(frac) {
			continue
		}
		at := int64(t)
		s.arrive = append(s.arrive, at)
		s.expire = append(s.expire, at+hold())
	}
	return s
}
