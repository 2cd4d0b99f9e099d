package main

import (
	"math"
	"slices"
	"strings"
	"time"

	"shmrename"
	"shmrename/internal/longlived"
)

// metricDef is one reported metric. Bound, for end-to-end metrics only,
// is the share of the baseline median by which the metric may worsen
// before a change counts as a regression; README.md gives the spread
// measured for each.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of the untraced run, measured through the
// public Arena. Besides setup_s, which is gated so that work moved into
// set-up shows, only metrics whose spread across runs on a shared 2-vCPU
// host stays well inside a bound are here; README.md gives the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"name_span", "ratio", "lower", 0.10},
	{"resident_bytes_per_holder", "B", "lower", 0.06},
}

// ungated are the public Arena's throughput and latency. Host drift
// spreads them across runs far beyond any bound (README.md), so they are
// per-layer metrics of the arena layer, reported by the traced run and
// printed, outside the result line, by the untraced run.
var ungated = []metricDef{
	{"arena.pairs_per_s", "pairs/s", "higher", 0},
	{"arena.pairs_per_s_1w", "pairs/s", "higher", 0},
	{"arena.acquire_p50_ns", "ns", "lower", 0},
	{"arena.release_p50_ns", "ns", "lower", 0},
}

// perLayer are the metrics of the traced run, charged to the layer (the
// module) that spent them. A layer a workload's stack lacks reports 0.
var perLayer = slices.Concat([]metricDef{
	{"driver.late_p50_ns", "ns", "lower", 0},
	{"driver.late_p99_ns", "ns", "lower", 0},
	{"driver.noop_pairs_per_s", "pairs/s", "higher", 0},
	{"driver.mean_live", "count", "higher", 0},
	{"driver.false_full", "count", "lower", 0},
	{"driver.fail_frac", "ratio", "lower", 0},
	{"driver.acquire_p99_ns", "ns", "lower", 0},
	{"driver.acquire_p999_ns", "ns", "lower", 0},
	{"driver.acquire_samples", "count", "higher", 0},
}, ungated, []metricDef{
	{"arena.acquire_ns", "ns", "lower", 0},
	{"arena.release_ns", "ns", "lower", 0},
	{"arena.self_ns", "ns", "lower", 0},
	{"leasecache.hit_ratio", "ratio", "higher", 0},
	{"leasecache.self_ns", "ns", "lower", 0},
	{"leasecache.refills_per_kacq", "1/kacq", "lower", 0},
	{"leasecache.spills_per_kacq", "1/kacq", "lower", 0},
	{"leasecache.steals_per_kacq", "1/kacq", "lower", 0},
	{"sharded.acquire_ns", "ns", "lower", 0},
	{"sharded.release_ns", "ns", "lower", 0},
	{"sharded.home_ratio", "ratio", "higher", 0},
	{"longlived.acquire_ns", "ns", "lower", 0},
	{"longlived.release_ns", "ns", "lower", 0},
	{"longlived.grows", "count", "lower", 0},
	{"longlived.shrinks", "count", "lower", 0},
	{"longlived.drain_cancels", "count", "lower", 0},
	{"longlived.capacity_now_mean", "count", "lower", 0},
	{"longlived.resident_bytes_mean", "B", "lower", 0},
	{"shm.steps_per_acquire", "steps", "lower", 0},
	{"shm.steps_per_release", "steps", "lower", 0},
	{"recovery.heartbeat_ns", "ns", "lower", 0},
	{"recovery.heartbeat_names", "count", "lower", 0},
	{"recovery.sweep_ns", "ns", "lower", 0},
	{"recovery.reclaimed", "count", "lower", 0},
	{"integrity.scrub_ns", "ns", "lower", 0},
	{"integrity.scrub_ns_per_name", "ns", "lower", 0},
	{"integrity.repaired", "count", "lower", 0},
	{"integrity.quarantined", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.reconcile_err", "ratio", "lower", 0},
})

// outcome is what one run of one workload measured.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int64
	faults            []string // correctness violations
	invalid           []string // reasons the load generator measured itself
}

// absorb adds a round's operation counts and faults.
func (o *outcome) absorb(r roundResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	o.faults = append(o.faults, r.faults...)
}

// Validity guard: the pacer must run on time, and the closed loop must be
// able to drive far more pairs than the arena serves, or the numbers
// measure the generator.
const (
	maxLateP50   = 1000 // ns
	minNoopRatio = 5
)

// checkValid records why a run measured the generator, if it did.
func (o *outcome) checkValid(lateP50, noop, bestPairs float64) {
	if lateP50 > maxLateP50 {
		o.invalid = append(o.invalid, "pacer late p50 above 1 µs")
	}
	if noop < minNoopRatio*bestPairs {
		o.invalid = append(o.invalid, "no-op closed loop below 5x the best pairs_per_s")
	}
}

// rounds splits an untraced run of seconds into rounds of equal length:
// four when there is room, so every metric is a median over rounds.
func rounds(seconds float64) (int, time.Duration) {
	r := min(4, max(1, int(seconds/2.5)))
	return r, time.Duration(seconds / float64(r) * float64(time.Second))
}

// noopDur is the length of the no-op closed loop of a run with rounds of T.
func noopDur(T time.Duration) time.Duration { return min(250*time.Millisecond, T/20) }

// measure runs the untraced benchmark of ws: rounds run round-robin across
// the workloads, so host drift hits every workload alike.
func measure(ws []*workload, seed uint64, seconds float64, workers int) []outcome {
	R, T := rounds(seconds)
	results := make([][]roundResult, len(ws))
	for r := range R {
		for i, w := range ws {
			cfg := w.publicConfig(seed^uint64(r)<<40, workers)
			results[i] = append(results[i], runRound(w, seed, r, T, workers, buildPublic(cfg), nil))
		}
	}
	out := make([]outcome, len(ws))
	for i, w := range ws {
		o := &out[i]
		var late []float64
		for _, r := range results[i] {
			o.absorb(r)
			late = append(late, float64(r.open.late.Quantile(0.5)))
		}
		o.metrics = publicMetrics(results[i])
		noop := noopPairsPerSec(workers, w.population(0), noopDur(T), seed)
		o.checkValid(median(late), noop, max(o.metrics["arena.pairs_per_s"], o.metrics["arena.pairs_per_s_1w"]))
	}
	return out
}

// publicMetrics reduces rounds on the public Arena to the metrics measured
// through it: medians over rounds, and over every latency window for the
// p50s.
func publicMetrics(rs []roundResult) map[string]float64 {
	var setup, pairs, pairs1w, acq, rel, span, perHolder []float64
	for _, r := range rs {
		setup = append(setup, r.setup)
		pairs = append(pairs, r.pairs)
		pairs1w = append(pairs1w, r.pairs1w)
		acq = append(acq, r.open.acqP50...)
		rel = append(rel, r.open.relP50...)
		span = append(span, r.open.nameSpan)
		perHolder = append(perHolder, ratio(r.open.meanResident, r.open.meanLive))
	}
	return map[string]float64{
		"setup_s":                   median(setup),
		"name_span":                 median(span),
		"resident_bytes_per_holder": median(perHolder),
		"arena.pairs_per_s":         median(pairs),
		"arena.pairs_per_s_1w":      median(pairs1w),
		"arena.acquire_p50_ns":      median(acq),
		"arena.release_p50_ns":      median(rel),
	}
}

// tracedRounds is the number of rounds a traced run drives the traced
// stack; one more round drives the public Arena untraced.
const tracedRounds = 2

// tracedRun is what a traced run of one workload measured.
type tracedRun struct {
	pub                       roundResult // the untraced public round
	pubAcq, pubRel, rawAcq    accum       // bracketed cells
	noop                      float64
	whole, closedN, closed1   stackSnap // load goroutines, traced rounds summed
	maint                     counters
	pairs1w, capNow, resident []float64 // per traced round
	resizes                   [3]int64  // elastic grows, shrinks, drain cancels
}

// traceOne runs the traced benchmark of w and returns its per-layer
// metrics and stored spans. It runs, in order: an untraced public round
// (the generator's own numbers, and the throughput the tracing overhead
// is measured against); two bracketed single-goroutine cells, one calling
// the public Arena and one calling the top internal layer directly (the
// arena layer's own time is their difference); a no-op cell; and
// tracedRounds rounds over the traced stack (every other layer).
func traceOne(w *workload, seed uint64, seconds float64, workers int) (outcome, []spanBatch) {
	T := time.Duration(seconds / (tracedRounds + 1.5) * float64(time.Second))
	var o outcome
	var tr tracedRun
	tr.pub = runRound(w, seed, 0, T, workers, buildPublic(w.publicConfig(seed, workers)), nil)
	o.absorb(tr.pub)
	falseFull := tr.pub.falseFull
	var cell roundResult
	tr.pubAcq, tr.pubRel, cell = bracketedCell(w, seed, T/5, buildPublic(w.publicConfig(seed, workers)))
	o.absorb(cell)
	tr.rawAcq, _, cell = bracketedCell(w, seed, T/5, buildRaw(w, seed, workers))
	o.absorb(cell)
	tr.noop = noopPairsPerSec(workers, w.population(0), noopDur(T), seed)

	var batches []spanBatch
	if err := checkStack(w, seed, workers); err != nil {
		o.faults = append(o.faults, err.Error())
		return o, nil
	}
	for r := 1; r <= tracedRounds; r++ {
		var st *tracedStack
		snaps := map[string]stackSnap{}
		build := func(n int) (arenaUnderTest, []int, error) {
			s, err := buildStack(w, seed^uint64(r)<<40, workers)
			if err != nil {
				return nil, nil, err
			}
			names, err := prefill(s.handles[0], n)
			if err != nil {
				s.Close()
				return nil, nil, err
			}
			return s, names, nil
		}
		observe := func(phase string, a arenaUnderTest) {
			st = a.(*tracedStack)
			snaps[phase] = st.snap()
			st.newPhase()
		}
		rr := runRound(w, seed, r, T, workers, build, observe)
		o.absorb(rr)
		falseFull += rr.falseFull
		if len(snaps) < 4 {
			continue // the round failed at set-up
		}
		tr.whole.add(snaps["closed1"].minus(snaps["start"]))
		tr.closedN.add(snaps["closedN"].minus(snaps["open"]))
		tr.closed1.add(snaps["closed1"].minus(snaps["closedN"]))
		tr.maint.add(st.maintenance().counters)
		tr.pairs1w = append(tr.pairs1w, rr.pairs1w)
		tr.capNow = append(tr.capNow, rr.open.meanCapNow)
		tr.resident = append(tr.resident, rr.open.meanResident)
		if el, ok := st.top.(*longlived.ElasticArena); ok {
			g, s, c := el.Resizes()
			tr.resizes[0], tr.resizes[1], tr.resizes[2] = tr.resizes[0]+g, tr.resizes[1]+s, tr.resizes[2]+c
		}
		batches = append(batches, st.batches(r)...)
	}
	o.metrics = layerMetrics(w, &tr)
	o.metrics["driver.false_full"] = float64(falseFull)
	o.metrics["driver.fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	o.checkValid(o.metrics["driver.late_p50_ns"], tr.noop, max(tr.pub.pairs, tr.pub.pairs1w))
	return o, batches
}

// layerMetrics assembles the per-layer metrics of a traced run. A layer
// the workload's stack lacks is left out and reported as 0.
func layerMetrics(w *workload, tr *tracedRun) map[string]float64 {
	pub, all, maint := tr.pub.open, tr.whole.all, tr.maint
	m := map[string]float64{
		"driver.late_p50_ns":            float64(pub.late.Quantile(0.5)),
		"driver.late_p99_ns":            float64(pub.late.Quantile(0.99)),
		"driver.noop_pairs_per_s":       tr.noop,
		"driver.mean_live":              pub.meanLive,
		"driver.acquire_p99_ns":         float64(pub.acqTail.Quantile(0.99)),
		"driver.acquire_p999_ns":        float64(pub.acqTail.Quantile(0.999)),
		"driver.acquire_samples":        float64(pub.acqTail.Count()),
		"arena.acquire_ns":              tr.pubAcq.mean(),
		"arena.release_ns":              tr.pubRel.mean(),
		"arena.self_ns":                 tr.pubAcq.mean() - tr.rawAcq.mean(),
		"shm.steps_per_acquire":         ratio(float64(tr.closedN.acqSteps), float64(tr.closedN.all[kCallAcquire].n)),
		"shm.steps_per_release":         ratio(float64(tr.closedN.relSteps), float64(tr.closedN.all[kCallRelease].n)),
		"recovery.heartbeat_ns":         all[kHeartbeat].mean(),
		"recovery.heartbeat_names":      ratio(float64(tr.whole.beatNames), float64(all[kHeartbeat].n)),
		"recovery.sweep_ns":             maint.all[kSweep].mean(),
		"recovery.reclaimed":            float64(maint.reclaimed),
		"integrity.scrub_ns":            maint.all[kScrub].mean(),
		"integrity.scrub_ns_per_name":   ratio(float64(maint.all[kScrub].ns), float64(maint.scanned)),
		"integrity.repaired":            float64(maint.repaired),
		"integrity.quarantined":         float64(maint.quarantined),
		"longlived.grows":               float64(tr.resizes[0]) / tracedRounds,
		"longlived.shrinks":             float64(tr.resizes[1]) / tracedRounds,
		"longlived.drain_cancels":       float64(tr.resizes[2]) / tracedRounds,
		"longlived.capacity_now_mean":   mean(tr.capNow),
		"longlived.resident_bytes_mean": mean(tr.resident),
		"sharded.home_ratio":            ratio(float64(tr.whole.homeHits), float64(tr.whole.homeN)),
		"trace.overhead_frac":           1 - ratio(median(tr.pairs1w), tr.pub.pairs1w),
		"trace.reconcile_err":           reconcileErr(tr.whole.counters),
	}
	for name, v := range publicMetrics([]roundResult{tr.pub}) {
		if strings.HasPrefix(name, "arena.") {
			m[name] = v
		}
	}
	top := all[kTopAcquire]
	switch {
	case w.cacheBlock > 0:
		inner, innerRel := all[kInnerAcquire], all[kInnerRelease]
		inner.merge(all[kInnerAcquireN])
		innerRel.merge(all[kInnerReleaseN])
		self := tr.whole.self[kTopAcquire]
		self.merge(tr.whole.self[kTopRelease])
		kacq := float64(top.n) / 1000
		m["leasecache.hit_ratio"] = 1 - ratio(float64(inner.n), float64(top.n))
		m["leasecache.self_ns"] = self.mean()
		m["leasecache.refills_per_kacq"] = ratio(float64(tr.whole.refills), kacq)
		m["leasecache.spills_per_kacq"] = ratio(float64(tr.whole.spills), kacq)
		m["leasecache.steals_per_kacq"] = ratio(float64(tr.whole.steals), kacq)
		m["sharded.acquire_ns"] = inner.mean()
		m["sharded.release_ns"] = innerRel.mean()
	case w.backend == string(shmrename.ArenaBackendSharded):
		m["sharded.acquire_ns"] = top.mean()
		m["sharded.release_ns"] = all[kTopRelease].mean()
	default:
		m["longlived.acquire_ns"] = top.mean()
		m["longlived.release_ns"] = all[kTopRelease].mean()
	}
	return m
}

// reconcileErr compares the self times of every layer, summed over the
// kept operations, with the mean duration of the benchmark's call over
// every operation. Self times are computed from the 1-in-64 kept
// spans alone, so the error shows whether the kept spans account for the
// time every operation spent.
func reconcileErr(c counters) float64 {
	var self int64
	for _, k := range opKinds {
		self += c.self[k].ns
	}
	kept := c.self[kCallAcquire].n + c.self[kCallRelease].n
	call := c.all[kCallAcquire]
	call.merge(c.all[kCallRelease])
	return ratio(math.Abs(ratio(float64(self), float64(kept))-call.mean()), call.mean())
}

// mean is the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
