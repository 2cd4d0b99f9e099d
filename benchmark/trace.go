package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shmrename"
	"shmrename/internal/integrity"
	"shmrename/internal/leasecache"
	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/recovery"
	"shmrename/internal/registry"
	_ "shmrename/internal/registry/all" // link every backend's registration
	"shmrename/internal/sharded"
	"shmrename/internal/shm"
)

// acquirePasses is the public Arena's bound on full acquire passes before
// it reports the arena full; the traced stack passes the same bound.
const acquirePasses = 8

// kind is one boundary of the traced stack that the benchmark times.
type kind uint8

const (
	// kCallAcquire and kCallRelease are the benchmark's calls into the
	// stack, standing where the public Arena's methods stand.
	kCallAcquire kind = iota
	kCallRelease
	// kTopAcquire and kTopRelease are calls into the top internal layer:
	// the lease cache, the sharded frontend or the level ladder.
	kTopAcquire
	kTopRelease
	// kInner* are the lease cache's calls into its sharded backend.
	kInnerAcquire
	kInnerAcquireN
	kInnerRelease
	kInnerReleaseN
	kHeartbeat
	kSweep
	kScrub
	nKinds
)

// opKinds are the kinds whose spans nest under an acquire or release.
var opKinds = []kind{kCallAcquire, kCallRelease, kTopAcquire, kTopRelease,
	kInnerAcquire, kInnerAcquireN, kInnerRelease, kInnerReleaseN}

// spanNames names each kind's spans for a stack whose top layer is top.
func spanNames(top string) [nKinds]string {
	return [nKinds]string{
		kCallAcquire:   "call.Acquire",
		kCallRelease:   "call.Release",
		kTopAcquire:    top + ".Acquire",
		kTopRelease:    top + ".Release",
		kInnerAcquire:  "sharded.Acquire",
		kInnerAcquireN: "sharded.AcquireN",
		kInnerRelease:  "sharded.Release",
		kInnerReleaseN: "sharded.ReleaseN",
		kHeartbeat:     "recovery.Heartbeat",
		kSweep:         "recovery.Sweep",
		kScrub:         "integrity.Scrub",
	}
}

// epoch anchors the trace clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

const (
	// keepBits: one operation in 1<<keepBits (64) keeps its spans, from
	// which self times are computed; counts and durations cover every
	// operation.
	keepBits = 6
	// storeOps bounds the kept operations per goroutine and phase whose
	// spans are also stored for the spans file.
	storeOps = 1 << 13
)

// span is one timed call. parent indexes the enclosing span of the same
// operation (-1 for a root); covered is the time its child spans took.
type span struct {
	kind       kind
	parent     int32
	op         uint64
	start, end int64
	covered    int64
}

// counters are one goroutine's totals. They are plain values, so phase
// totals are differences of snapshots.
type counters struct {
	all                 [nKinds]accum // every operation: count and duration
	self                [nKinds]accum // kept operations: self time
	acqSteps, relSteps  int64         // shared-memory steps below the call
	homeHits, homeN     int64         // sharded acquires landing on the last shard
	beatNames           int64         // leases renewed by heartbeats
	reclaimed, repaired int64
	quarantined         int64
	unrepaired, scanned int64
}

func (c *counters) add(d counters) {
	for k := range nKinds {
		c.all[k].merge(d.all[k])
		c.self[k].merge(d.self[k])
	}
	c.acqSteps += d.acqSteps
	c.relSteps += d.relSteps
	c.homeHits += d.homeHits
	c.homeN += d.homeN
	c.beatNames += d.beatNames
	c.reclaimed += d.reclaimed
	c.repaired += d.repaired
	c.quarantined += d.quarantined
	c.unrepaired += d.unrepaired
	c.scanned += d.scanned
}

func (c counters) minus(d counters) counters {
	for k := range nKinds {
		c.all[k] = c.all[k].minus(d.all[k])
		c.self[k] = c.self[k].minus(d.self[k])
	}
	c.acqSteps -= d.acqSteps
	c.relSteps -= d.relSteps
	c.homeHits -= d.homeHits
	c.homeN -= d.homeN
	c.beatNames -= d.beatNames
	c.reclaimed -= d.reclaimed
	c.repaired -= d.repaired
	c.quarantined -= d.quarantined
	c.unrepaired -= d.unrepaired
	c.scanned -= d.scanned
	return c
}

// tracer records the spans of one goroutine. Only that goroutine touches
// it while it runs; the padding keeps neighbouring tracers' hot fields off
// a shared cache line.
type tracer struct {
	_ [64]byte
	counters
	worker    int
	proc      *shm.Proc
	ops, op   uint64
	keep      bool
	open      []int32 // indices into scratch of the spans not yet exited
	scratch   []span  // the current operation's spans
	stored    []span
	storedOps int
	lastShard int
	_         [64]byte
}

// begin starts an operation; always keeps its spans regardless of the
// sampling rate (maintenance calls, which are rare). The kept operations
// are picked by a multiplicative hash of the count, not every 64th one:
// the closed loop alternates releases and acquires, so a stride would keep
// only one of the two.
func (t *tracer) begin(always bool) {
	t.ops++
	t.op = uint64(t.worker)<<48 | t.ops
	t.keep = always || (t.ops*0x9e3779b97f4a7c15)>>(64-keepBits) == 0
}

// enter opens a span of kind k and returns its start time. Every
// operation records its spans the same way, kept or not, so keeping one
// does not make it slower than the rest.
func (t *tracer) enter(k kind) int64 {
	start := now()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.scratch = append(t.scratch, span{kind: k, parent: parent, op: t.op, start: start})
	t.open = append(t.open, int32(len(t.scratch)-1))
	return start
}

// exit closes the innermost open span, which enter(k) opened at start.
func (t *tracer) exit(k kind, start int64) {
	end := now()
	d := end - start
	t.all[k].add(d)
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	sp := &t.scratch[i]
	sp.end = end
	if sp.parent >= 0 {
		t.scratch[sp.parent].covered += d
	}
}

// finish ends the operation. A kept one adds its spans' self times and,
// while the phase's budget lasts, stores them.
func (t *tracer) finish() {
	if t.keep {
		for _, sp := range t.scratch {
			t.self[sp.kind].add(sp.end - sp.start - sp.covered)
		}
		if t.storedOps < storeOps {
			base := int32(len(t.stored))
			for _, sp := range t.scratch {
				if sp.parent >= 0 {
					sp.parent += base
				}
				t.stored = append(t.stored, sp)
			}
			t.storedOps++
		}
	}
	t.scratch = t.scratch[:0]
	t.keep = false
}

// landed records a sharded acquire in shard s; moved records a release.
// Both follow the frontend's affinity rule, so homeHits/homeN is the share
// of acquires served by the shard the caller's affinity pointed at.
func (t *tracer) landed(s int) {
	t.homeN++
	if s == t.lastShard {
		t.homeHits++
	}
	t.lastShard = s
}

func (t *tracer) moved(s int) { t.lastShard = s }

// tracedStack is the public Arena's backend stack rebuilt from the
// internal constructors, with every boundary the benchmark can interpose
// timed: its own calls, the top internal layer, the lease cache's calls
// into its backend, and heartbeat, sweep and scrub.
type tracedStack struct {
	top       longlived.Arena
	names     [nKinds]string
	sh        *sharded.Arena // the sharded frontend, top or under the cache
	shardBase []int
	cache     *leasecache.Cache
	rec       longlived.Recoverable // nil without leases
	holder    uint64
	sweeper   *recovery.Sweeper
	scrubber  *integrity.Scrubber
	tracers   []*tracer // the load goroutines', then maintenance's
	handles   []*tracedHandle
	stopMaint func()
	corrupted atomic.Pointer[string]
	closed    bool
}

// leaseHolder is the lease holder identity the public Arena stamps: the
// process ID, folded into the stamp's holder field if it overflows.
func leaseHolder() uint64 {
	h := uint64(os.Getpid())
	if h < 1 || h > shm.MaxHolder {
		h = h%shm.MaxHolder + 1
	}
	return h
}

// buildStack builds w's backend stack from registry.Lookup, leasecache.New,
// recovery.NewSweeper and integrity.NewScrubber with the configuration the
// public Arena gives it, for workers load goroutines. A sharded backend
// gets one shard per load goroutine, as the public Arena is configured.
func buildStack(w *workload, seed uint64, workers int) (*tracedStack, error) {
	b, ok := registry.Lookup(w.backend)
	if !ok {
		return nil, fmt.Errorf("backend %q is not registered", w.backend)
	}
	rcfg := registry.Config{
		Capacity:  w.capacity,
		MaxPasses: acquirePasses,
		Scan:      "word",
		Padded:    true,
		Shards:    workers,
	}
	st := &tracedStack{}
	if w.lease != nil {
		st.holder = leaseHolder()
		rcfg.Epochs = shm.WallEpochs{}
		rcfg.Holder = st.holder
	}
	st.top = b.New(rcfg)
	topLayer := "longlived"
	if sh, ok := st.top.(*sharded.Arena); ok {
		st.sh, topLayer = sh, "sharded"
		for s := range sh.Shards() {
			st.shardBase = append(st.shardBase, sh.ShardBase(s))
		}
	}
	if w.cacheBlock > 0 {
		if st.sh == nil {
			return nil, fmt.Errorf("workload %s: the lease cache needs the sharded backend", w.name)
		}
		st.cache = leasecache.New(&tap{Arena: st.sh, st: st}, leasecache.Config{Block: w.cacheBlock})
		st.top, topLayer = st.cache, "leasecache"
	}
	st.names = spanNames(topLayer)
	for i := range workers + 1 {
		t := &tracer{worker: i, proc: shm.NewProc(i, prng.NewStream(seed, i), nil, 0), lastShard: -1}
		if st.sh != nil {
			t.lastShard = i % st.sh.Shards()
		}
		st.tracers = append(st.tracers, t)
	}
	for _, t := range st.tracers[:workers] {
		st.handles = append(st.handles, &tracedHandle{st: st, t: t})
	}
	if l := w.lease; l != nil {
		rec, ok := st.top.(longlived.Recoverable)
		if !ok {
			return nil, fmt.Errorf("workload %s: backend %s does not support leases", w.name, st.top.Label())
		}
		st.rec = rec
		ttl := max(uint64(l.ttl/time.Millisecond), 1)
		st.sweeper = recovery.NewSweeper(rec, recovery.Config{TTL: ttl, Epochs: shm.WallEpochs{}})
		icfg := integrity.Config{Epochs: shm.WallEpochs{}, TTL: ttl, Quarantine: true}
		if st.cache != nil {
			icfg.Parked, icfg.Purge = st.cache.Parked, st.cache.PurgeParked
			st.cache.SetOnCorruption(func(msg string) { st.corrupted.CompareAndSwap(nil, &msg) })
		}
		st.scrubber = integrity.NewScrubber(rec, icfg)
		st.stopMaint = st.maintain(l.reaper, l.scrub)
	}
	return st, nil
}

// checkStack builds w's public Arena and its traced stack and reports any
// difference in Label, Capacity or NameBound.
func checkStack(w *workload, seed uint64, workers int) error {
	a, err := shmrename.NewArena(w.publicConfig(seed, workers))
	if err != nil {
		return err
	}
	defer a.Close()
	st, err := buildStack(w, seed, workers)
	if err != nil {
		return err
	}
	defer st.Close()
	if got, want := st.top.Label(), a.Backend(); got != want {
		return fmt.Errorf("workload %s: traced stack is %q, public arena %q", w.name, got, want)
	}
	if got, want := st.Capacity(), a.Capacity(); got != want {
		return fmt.Errorf("workload %s: traced capacity %d, public %d", w.name, got, want)
	}
	if got, want := st.NameBound(), a.NameBound(); got != want {
		return fmt.Errorf("workload %s: traced name bound %d, public %d", w.name, got, want)
	}
	return nil
}

// maintain runs the sweeps and scrubs the public Arena's reaper and
// scrubber goroutines would, timing each, until the returned stop, which
// Close calls once.
func (st *tracedStack) maintain(reaper, scrub time.Duration) func() {
	t := st.tracers[len(st.tracers)-1]
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sweeps, scrubs := time.NewTicker(reaper), time.NewTicker(scrub)
		defer sweeps.Stop()
		defer scrubs.Stop()
		for {
			select {
			case <-done:
				return
			case <-sweeps.C:
				t.begin(true)
				s := t.enter(kSweep)
				res := st.sweeper.Sweep(t.proc)
				t.exit(kSweep, s)
				t.finish()
				t.reclaimed += int64(res.Reclaimed + res.Resumed)
			case <-scrubs.C:
				t.begin(true)
				s := t.enter(kScrub)
				res := st.scrubber.Scrub(t.proc)
				t.exit(kScrub, s)
				t.finish()
				t.repaired += int64(res.Repaired)
				t.quarantined += int64(res.Quarantined)
				t.unrepaired += int64(res.Unrepaired)
				t.scanned += int64(res.Scanned)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// maintenance is the maintenance goroutine's tracer; read it only after
// Close.
func (st *tracedStack) maintenance() *tracer { return st.tracers[len(st.tracers)-1] }

// shardOf is the shard owning a global name.
func (st *tracedStack) shardOf(name int) int {
	s := len(st.shardBase) - 1
	for s > 0 && name < st.shardBase[s] {
		s--
	}
	return s
}

// stackSnap is a snapshot of the load goroutines' counters and the lease
// cache's slow-path counters.
type stackSnap struct {
	counters
	refills, spills, steals int64
}

func (a stackSnap) minus(b stackSnap) stackSnap {
	return stackSnap{a.counters.minus(b.counters), a.refills - b.refills, a.spills - b.spills, a.steals - b.steals}
}

func (a *stackSnap) add(b stackSnap) {
	a.counters.add(b.counters)
	a.refills += b.refills
	a.spills += b.spills
	a.steals += b.steals
}

// snap sums the load goroutines' counters. Call it only while no load
// goroutine runs.
func (st *tracedStack) snap() stackSnap {
	var s stackSnap
	for _, t := range st.tracers[:len(st.tracers)-1] {
		s.counters.add(t.counters)
	}
	if st.cache != nil {
		s.refills, s.spills, s.steals = st.cache.Stats()
	}
	return s
}

// newPhase renews every load goroutine's span-storage budget.
func (st *tracedStack) newPhase() {
	for _, t := range st.tracers[:len(st.tracers)-1] {
		t.storedOps = 0
	}
}

func (st *tracedStack) handle(w int) target { return st.handles[w] }

func (st *tracedStack) footprint() (int64, int) {
	var resident int64
	if fp, ok := st.top.(registry.Footprint); ok {
		resident = fp.ResidentBytes()
	}
	capNow := st.top.Capacity()
	if el, ok := st.top.(registry.Elastic); ok {
		capNow = el.CapacityNow()
	}
	return resident, capNow
}

func (st *tracedStack) NameBound() int { return st.top.NameBound() }

// Capacity subtracts quarantined names, as the public Arena does.
func (st *tracedStack) Capacity() int {
	c := st.top.Capacity()
	if st.scrubber != nil {
		c -= st.scrubber.QuarantinedNames()
	}
	return max(c, 0)
}

func (st *tracedStack) Held() int { return st.top.Held() }

// Close stops the maintenance goroutine and flushes the lease cache, as
// the public Arena's Close does.
func (st *tracedStack) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if st.stopMaint != nil {
		st.stopMaint()
	}
	if st.cache != nil {
		st.cache.Flush(st.maintenance().proc)
	}
	return nil
}

func (st *tracedStack) audit() []string {
	var out []string
	m := st.maintenance()
	if m.reclaimed != 0 {
		out = append(out, fmt.Sprintf("recovery reclaimed %d names from live holders", m.reclaimed))
	}
	if m.quarantined != 0 {
		out = append(out, fmt.Sprintf("integrity quarantined %d names", m.quarantined))
	}
	if m.unrepaired != 0 {
		out = append(out, fmt.Sprintf("integrity left %d violations unrepaired", m.unrepaired))
	}
	if msg := st.corrupted.Load(); msg != nil {
		out = append(out, "lease cache corrupted: "+*msg)
	}
	return out
}

// tracedHandle is one load goroutine's entry into the traced stack. It
// does what the public Arena's methods do around the backend call: check
// for corruption, validate releases, count steps.
type tracedHandle struct {
	st *tracedStack
	t  *tracer
}

func (h *tracedHandle) Acquire() (int, error) {
	st, t := h.st, h.t
	if msg := st.corrupted.Load(); msg != nil {
		return -1, fmt.Errorf("%w: %s", shmrename.ErrCorrupted, *msg)
	}
	t.begin(false)
	cs := t.enter(kCallAcquire)
	before := t.proc.Steps()
	ts := t.enter(kTopAcquire)
	name := st.top.Acquire(t.proc)
	t.exit(kTopAcquire, ts)
	t.acqSteps += t.proc.Steps() - before
	t.exit(kCallAcquire, cs)
	t.finish()
	if name < 0 {
		return -1, fmt.Errorf("%w: capacity %d", shmrename.ErrArenaFull, st.top.Capacity())
	}
	if st.cache == nil && st.sh != nil {
		t.landed(st.shardOf(name))
	}
	return name, nil
}

func (h *tracedHandle) Release(name int) error {
	st, t := h.st, h.t
	if msg := st.corrupted.Load(); msg != nil {
		return fmt.Errorf("%w: %s", shmrename.ErrCorrupted, *msg)
	}
	t.begin(false)
	cs := t.enter(kCallRelease)
	if name < 0 || name >= st.top.NameBound() || !st.top.IsHeld(name) {
		t.exit(kCallRelease, cs)
		t.finish()
		return fmt.Errorf("%w: name %d", shmrename.ErrNotHeld, name)
	}
	before := t.proc.Steps()
	ts := t.enter(kTopRelease)
	st.top.Release(t.proc, name)
	t.exit(kTopRelease, ts)
	t.relSteps += t.proc.Steps() - before
	t.exit(kCallRelease, cs)
	t.finish()
	if st.cache == nil && st.sh != nil {
		t.moved(st.shardOf(name))
	}
	return nil
}

func (h *tracedHandle) Heartbeat() int {
	st, t := h.st, h.t
	if st.rec == nil {
		return 0
	}
	t.begin(true)
	s := t.enter(kHeartbeat)
	n := longlived.HeartbeatHolder(st.rec, t.proc, st.holder, shm.WallEpochs{}.Now())
	t.exit(kHeartbeat, s)
	t.finish()
	t.beatNames += int64(n)
	return n
}

// rawStack is a traced stack driven without spans: each load goroutine
// calls the top internal layer directly. Bracketed like the public Arena,
// it is the other half of arena.self_ns.
type rawStack struct{ *tracedStack }

func (s rawStack) handle(w int) target { return rawHandle{s.tracedStack, s.tracers[w].proc} }

type rawHandle struct {
	st *tracedStack
	p  *shm.Proc
}

func (h rawHandle) Acquire() (int, error) {
	if n := h.st.top.Acquire(h.p); n >= 0 {
		return n, nil
	}
	return -1, fmt.Errorf("%w: capacity %d", shmrename.ErrArenaFull, h.st.top.Capacity())
}

func (h rawHandle) Release(name int) error {
	h.st.top.Release(h.p, name)
	return nil
}

func (h rawHandle) Heartbeat() int {
	if h.st.rec == nil {
		return 0
	}
	return longlived.HeartbeatHolder(h.st.rec, h.p, h.st.holder, shm.WallEpochs{}.Now())
}

// buildRaw is the builder of w's stack driven without spans.
func buildRaw(w *workload, seed uint64, workers int) builder {
	return func(n int) (arenaUnderTest, []int, error) {
		st, err := buildStack(w, seed, workers)
		if err != nil {
			return nil, nil, err
		}
		raw := rawStack{st}
		names, err := prefill(raw.handle(0), n)
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		return raw, names, nil
	}
}

// tap sits between the lease cache and its sharded backend: it times
// every call the cache makes into the backend and follows the calling
// goroutine's shard affinity. Every other method is the backend's own.
type tap struct {
	*sharded.Arena
	st *tracedStack
}

func (a *tap) Acquire(p *shm.Proc) int {
	t := a.st.tracers[p.ID()]
	s := t.enter(kInnerAcquire)
	n := a.Arena.Acquire(p)
	t.exit(kInnerAcquire, s)
	if n >= 0 {
		t.landed(a.st.shardOf(n))
	}
	return n
}

func (a *tap) AcquireN(p *shm.Proc, k int, out []int) []int {
	t := a.st.tracers[p.ID()]
	pre := len(out)
	s := t.enter(kInnerAcquireN)
	out = a.Arena.AcquireN(p, k, out)
	t.exit(kInnerAcquireN, s)
	if len(out) > pre {
		t.landed(a.st.shardOf(out[pre]))
	}
	return out
}

func (a *tap) Release(p *shm.Proc, name int) {
	t := a.st.tracers[p.ID()]
	s := t.enter(kInnerRelease)
	a.Arena.Release(p, name)
	t.exit(kInnerRelease, s)
	t.moved(a.st.shardOf(name))
}

func (a *tap) ReleaseN(p *shm.Proc, names []int) {
	t := a.st.tracers[p.ID()]
	s := t.enter(kInnerReleaseN)
	a.Arena.ReleaseN(p, names)
	t.exit(kInnerReleaseN, s)
	if len(names) > 0 {
		t.moved(a.st.shardOf(slices.Min(names)))
	}
}

// spanBatch is the stored spans of one goroutine in one traced round.
type spanBatch struct {
	round, worker int
	names         [nKinds]string
	spans         []span
}

// batches collects the stored spans of every goroutine; call after Close.
func (st *tracedStack) batches(round int) []spanBatch {
	var out []spanBatch
	for _, t := range st.tracers {
		if len(t.stored) > 0 {
			out = append(out, spanBatch{round, t.worker, st.names, t.stored})
		}
	}
	return out
}

// writeSpans writes every stored span as one JSON object per line: name,
// start and end (ns on the trace clock), the parent span's id (-1 for a
// root), and the operation id shared by one call's spans.
func writeSpans(path string, batches []spanBatch) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, b := range batches {
		for i, sp := range b.spans {
			fmt.Fprintf(bw, `{"round":%d,"worker":%d,"id":%d,"parent":%d,"op":%d,"name":%q,"start":%d,"end":%d}`+"\n",
				b.round, b.worker, i, sp.parent, sp.op, b.names[sp.kind], sp.start, sp.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
