package core

import (
	"fmt"
	"sync/atomic"

	"shmrename/internal/shm"
	"shmrename/internal/taureg"
)

// TightConfig parameterizes the §III tight renamer.
type TightConfig struct {
	// C is the paper's "suitably large constant" c sizing the clusters.
	// Larger values concentrate more requests per block (better per-round
	// fill probability) at the cost of more rounds. Default 2.
	C float64
	// Geometry selects the cluster layout; default Corrected.
	Geometry GeometryKind
	// SelfClocked builds self-clocked counting devices for native runs.
	// Leave false for simulated runs (the scheduler ticks the clock).
	// Simulated runs may also use self-clocked devices (observably
	// equivalent, cheaper).
	SelfClocked bool
	// Padded line-aligns the name bitmap: packed words rounded up to whole
	// 64-byte cache lines that no other allocation shares. Set it for
	// native runs on real cores; leave it false for simulated runs, where
	// the packed layout skips the rounding.
	Padded bool
}

func (c *TightConfig) fill() {
	if c.C == 0 {
		c.C = 2
	}
}

// Tight is the Theorem 5 algorithm: tight renaming of n processes to the
// names [0, n) using an array of τ-registers (with τ = log n), O(log n)
// steps per process w.h.p. and O(n) extra TAS bits.
//
// Per process: in round i it test-and-sets one uniformly random TAS bit in
// cluster C_i; the bit's counting device confirms at most τ winners
// (block discarding); a confirmed winner scans the device's τ name
// registers and must find a free one. A process that loses every round
// enters the deterministic fallback sweep, which walks all devices,
// skipping full ones — the "eventually find a free TAS bit" clause of
// §III made explicit. Capacity counting guarantees the sweep terminates:
// each failed attempt coincides with some other process being confirmed,
// and confirmations are capped at n.
type Tight struct {
	cfg TightConfig
	geo Geometry
	arr *taureg.Array

	// Diagnostics (not shared-memory state).
	clusterWins  []atomic.Int64
	fallbackWins atomic.Int64
	sweepPasses  atomic.Int64
}

// NewTight builds a tight-renaming instance for n processes.
func NewTight(n int, cfg TightConfig) *Tight {
	cfg.fill()
	geo := NewGeometry(n, cfg.C, cfg.Geometry)
	mkArray := taureg.NewArray
	if cfg.Padded {
		mkArray = taureg.NewArrayPadded
	}
	t := &Tight{
		cfg:         cfg,
		geo:         geo,
		arr:         mkArray("taux", geo.Width, geo.Specs, cfg.SelfClocked),
		clusterWins: make([]atomic.Int64, len(geo.Clusters)),
	}
	return t
}

// Label implements Instance.
func (t *Tight) Label() string {
	return fmt.Sprintf("tight-tau(c=%g,%s)", t.cfg.C, t.cfg.Geometry)
}

// N implements Instance.
func (t *Tight) N() int { return t.geo.N }

// M implements Instance: tight renaming, m = n.
func (t *Tight) M() int { return t.geo.N }

// Geometry returns the cluster layout (diagnostics, E3/E12).
func (t *Tight) Geometry() Geometry { return t.geo }

// Array exposes the underlying τ-register array (diagnostics, tests).
func (t *Tight) Array() *taureg.Array { return t.arr }

// Probeables implements Instance.
func (t *Tight) Probeables() map[string]shm.Probeable { return t.arr.Probeables() }

// Clock implements Instance: simulated instances tick every device after
// each granted operation; self-clocked instances need no external clock.
func (t *Tight) Clock() func() {
	if t.cfg.SelfClocked {
		return nil
	}
	return t.arr.CycleAll
}

// Body implements Instance: the per-process protocol of §III.
func (t *Tight) Body(p *shm.Proc) int {
	r := p.Rand()
	w := t.geo.Width
	for i, cl := range t.geo.Clusters {
		bit := r.Intn(cl.Devices * w)
		d := cl.FirstDevice + bit/w
		b := bit % w
		if t.arr.Device(d).AcquireBit(p, b) == taureg.Won {
			name := t.arr.ClaimName(p, d)
			t.clusterWins[i].Add(1)
			return name
		}
	}
	return t.fallback(p)
}

// fallback is the deterministic safety net: sweep the devices backwards,
// skip full ones (one out_reg read each), try the free bits of the rest.
// It is the "eventually find a free TAS bit" clause of §III made explicit.
//
// The sweep starts from the last device because residual capacity
// concentrates in the tail: early clusters receive ~2c·log n requests per
// block and fill all τ slots w.h.p., while the truncated geometric tail is
// fluctuation-dominated, so the expected sweep distance is O(log n).
// Termination is guaranteed regardless: a process can only lose a free
// non-full device to a newly confirmed winner, and confirmations are
// capped at n, so some pass must succeed while any capacity remains.
func (t *Tight) fallback(p *shm.Proc) int {
	nd := t.arr.NumDevices()
	for {
		t.sweepPasses.Add(1)
		for d := nd - 1; d >= 0; d-- {
			dev := t.arr.Device(d)
			if dev.Tau() == 0 || dev.Full(p) {
				continue
			}
			in := dev.ReadRequests(p)
			for b := 0; b < dev.Width(); b++ {
				if in&(uint64(1)<<b) != 0 {
					continue
				}
				if dev.AcquireBit(p, b) == taureg.Won {
					t.fallbackWins.Add(1)
					return t.arr.ClaimName(p, d)
				}
			}
		}
	}
}

// Stats reports how the assignment was won: per-cluster confirmations and
// fallback confirmations. Valid after a run completes.
func (t *Tight) Stats() TightStats {
	s := TightStats{
		ClusterWins: make([]int64, len(t.clusterWins)),
		Fallback:    t.fallbackWins.Load(),
		SweepPasses: t.sweepPasses.Load(),
	}
	for i := range t.clusterWins {
		w := t.clusterWins[i].Load()
		s.ClusterWins[i] = w
		s.ClusterTotal += w
	}
	return s
}

// TightStats summarizes where names were won (diagnostics for E2/E12).
type TightStats struct {
	ClusterWins  []int64 // per-round confirmations
	ClusterTotal int64   // sum over rounds
	Fallback     int64   // names won through the fallback sweep
	SweepPasses  int64   // total sweep passes across processes
}
