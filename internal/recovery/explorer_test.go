package recovery

import (
	"fmt"
	"testing"

	"shmrename/internal/integrity"
	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
	"shmrename/internal/shm"
)

// The word-lease explorer runs the one-holder lease protocol under the
// simulator's scheduler: two client procs that share one holder (claim,
// heartbeat, release) and one maintenance proc (a recovery sweep, then an
// integrity scrub), over a 2-word name space whose stamps are word
// records. Every word-record access is one step, and the lease clock
// advances one epoch per step, so leases go stale mid-run.
//
// Legal executions follow the lease discipline the protocol assumes: a
// client finishes each claim or release within the TTL, and a client
// whose lease on a word it holds names in goes stale has missed its
// heartbeat deadline. The schedule crashes such a client at that point
// instead of letting it run on; its leftovers are the sweep's to recover.
//
// After every step the oracle checks that owned ⊆ bitmap in both words,
// that every name a live client holds is still claimed and owned under
// its holder's lease, that no reclaim starts on a fresh lease and no word
// is quarantined; each grant checks that no other client holds the name;
// and each scrub must report no violation. After the run, sweeps on an
// advancing clock must return every name and lease to zero.

const (
	explorerTTL    = 10
	explorerHolder = 1
	explorerWords  = 2
)

// explorerArena is the smallest word-record arena: one 128-name bitmap,
// claimed first fit through the stamped claim variants every backend
// uses. Only the methods the explorer calls are implemented.
type explorerArena struct {
	registry.Arena
	ns *shm.NameSpace
	st *shm.Stamps
}

func newExplorerArena(ep shm.EpochSource) *explorerArena {
	ns := shm.NewNameSpace("explore:L0", 64*explorerWords)
	return &explorerArena{ns: ns, st: shm.NewWordStamps("explore:lease", []*shm.NameSpace{ns}, ep)}
}

func (a *explorerArena) Acquire(p *shm.Proc) int {
	for w := range explorerWords {
		if n := a.ns.ClaimFirstFreeStamped(p, w, shm.PackStamp(explorerHolder, 0)); n >= 0 {
			return n
		}
	}
	return -1
}

func (a *explorerArena) Release(p *shm.Proc, n int) { a.ns.FreeStamped(p, n, explorerHolder) }

func (a *explorerArena) LeaseDomains() []longlived.LeaseDomain {
	return []longlived.LeaseDomain{{
		Stamps:  a.st,
		IsHeld:  a.ns.Probe,
		Reclaim: a.ns.Free,
		Seize:   a.ns.TryClaim,
	}}
}

// bitmap reads word w's claim bits without a step.
func (a *explorerArena) bitmap(w int) uint64 {
	var b uint64
	for i := range 64 {
		if a.ns.Probe(w<<6 + i) {
			b |= 1 << i
		}
	}
	return b
}

// explorerClient is the oracle's view of one client proc.
type explorerClient struct {
	holds   [explorerWords]uint64 // granted names, by word
	op      int                   // 0 idle, 1 claiming, 2 releasing
	opStart uint64                // epoch of the op's first step, 0 before it
	crashed bool
}

// explorerRun is one execution: the arena, the oracle, and the schedule
// rule that crashes clients outside the lease discipline.
type explorerRun struct {
	ep      *shm.CounterEpochs
	a       *explorerArena
	sw      *Sweeper
	sc      *integrity.Scrubber
	clients [2]explorerClient
	granted int // PID of the last granted step
	err     string
	// overTomb counts claims whose lease CAS turned a reclaim's tombstone
	// into the holder's lease; crashes counts clients the schedule crashed.
	overTomb, crashes int
}

func (r *explorerRun) fail(format string, args ...any) {
	if r.err == "" {
		r.err = fmt.Sprintf(format, args...)
	}
}

// newExplorerRun builds the initial state: word 0 carries the holder's
// lease from a finished claim and release, stale by the time the run
// starts; word 1 carries a claim bit nobody owns (a claimant that walked
// away or crashed before its lease CAS).
func newExplorerRun() *explorerRun {
	r := &explorerRun{ep: shm.NewCounterEpochs(1)}
	r.a = newExplorerArena(r.ep)
	r.sw = NewSweeper(r.a, Config{TTL: explorerTTL, Epochs: r.ep})
	r.sc = integrity.NewScrubber(r.a, integrity.Config{Epochs: r.ep, TTL: explorerTTL, Quarantine: true})
	setup := shm.NewProc(9, prng.NewStream(1, 9), nil, 0)
	r.a.Release(setup, r.a.Acquire(setup))
	r.a.ns.ClaimFirstFree(setup, 1)
	r.ep.Advance(explorerTTL + 1)
	return r
}

// body is the three procs' program: PIDs 0 and 1 are clients, 2 sweeps
// then scrubs.
func (r *explorerRun) body(p *shm.Proc) int {
	if p.ID() == 2 {
		r.sw.Sweep(p)
		if res := r.sc.Scrub(p); res.Unrepaired != 0 || res.Quarantined != 0 {
			r.fail("scrub with no damage injected: %+v", res)
		}
		return -1
	}
	c := &r.clients[p.ID()]
	c.op, c.opStart = 1, 0
	n := r.a.Acquire(p)
	c.op = 0
	if n < 0 {
		return -1
	}
	r.grant(p.ID(), n)
	longlived.HeartbeatHolder(r.a, p, explorerHolder, r.ep.Now())
	c.op, c.opStart = 2, 0
	r.a.Release(p, n)
	c.holds[n>>6] &^= 1 << (n & 63)
	c.op = 0
	return -1
}

// grant records that client pid was granted n.
func (r *explorerRun) grant(pid, n int) {
	w, bit := n>>6, uint64(1)<<(n&63)
	for i := range r.clients {
		if r.clients[i].holds[w]&bit != 0 {
			r.fail("name %d granted to client %d while client %d holds it", n, pid, i)
		}
	}
	if r.a.bitmap(w)&bit == 0 || r.a.st.Owned(w)&bit == 0 {
		r.fail("name %d granted to client %d but not claimed and owned", n, pid)
	}
	r.clients[pid].holds[w] |= bit
}

// overdue reports whether the schedule must crash client pid: it has been
// inside a claim or release longer than the TTL, or holds a name in a
// word whose lease went stale.
func (r *explorerRun) overdue(pid int) bool {
	if pid >= len(r.clients) {
		return false
	}
	c := &r.clients[pid]
	now := r.ep.Now()
	if c.op != 0 && c.opStart != 0 && now-c.opStart > explorerTTL {
		return true
	}
	for w, held := range c.holds {
		if held == 0 {
			continue
		}
		if h, e := shm.UnpackStamp(r.a.st.Load(w)); h != explorerHolder || shm.StampStale(now, e, explorerTTL) {
			return true
		}
	}
	return false
}

// afterStep checks the oracle's invariants, then advances the clock.
func (r *explorerRun) afterStep(prev *[explorerWords]uint64) {
	now := r.ep.Now()
	if r.granted < len(r.clients) {
		if c := &r.clients[r.granted]; c.op != 0 && c.opStart == 0 {
			c.opStart = now
		}
	}
	for w := range explorerWords {
		lease, owned, bm := r.a.st.Load(w), r.a.st.Owned(w), r.a.bitmap(w)
		if owned&^bm != 0 {
			r.fail("word %d: owned %#x ⊄ bitmap %#x", w, owned, bm)
		}
		h, _ := shm.UnpackStamp(lease)
		ph, pe := shm.UnpackStamp(prev[w])
		if h == shm.HolderSuspect && ph != shm.HolderSuspect && !shm.StampStale(now, pe, explorerTTL) {
			r.fail("word %d: reclaim began on the fresh lease %#x", w, prev[w])
		}
		if h == shm.HolderQuarantine {
			r.fail("word %d quarantined with no damage injected", w)
		}
		if h == explorerHolder && ph == shm.HolderTomb {
			r.overTomb++
		}
		prev[w] = lease
		for pid := range r.clients {
			c := &r.clients[pid]
			held := c.holds[w]
			if c.crashed || held == 0 {
				continue
			}
			if c.op == 2 {
				continue // its own release is clearing a held name
			}
			if held&^(bm&owned) != 0 || h != explorerHolder {
				r.fail("client %d lost names %#x of word %d under lease %#x (owned %#x, bitmap %#x)",
					pid, held&^(bm&owned), w, lease, owned, bm)
			}
		}
	}
	r.ep.Advance(1)
}

// quiesce sweeps on an advancing clock until recovery has nothing left,
// then checks every name and lease is back to zero.
func (r *explorerRun) quiesce() {
	q := shm.NewProc(8, prng.NewStream(1, 8), nil, 0)
	for range 8 {
		r.ep.Advance(explorerTTL + 1)
		r.sw.Sweep(q)
	}
	for w := range explorerWords {
		if bm, owned, lease := r.a.bitmap(w), r.a.st.Owned(w), r.a.st.Load(w); bm|owned|lease != 0 {
			r.fail("word %d not recovered: bitmap %#x owned %#x lease %#x", w, bm, owned, lease)
		}
	}
}

// picker chooses the index of the pending step to grant.
type picker func(w sched.World, pending []sched.Request, r *prng.Rand) int

// explorerPolicy grants the steps a picker chooses, after crashing every
// client the lease discipline rules out.
type explorerPolicy struct {
	run  *explorerRun
	pick picker
}

func (explorerPolicy) Name() string { return "explorer" }

func (e explorerPolicy) Next(w sched.World, pending []sched.Request, r *prng.Rand) sched.Decision {
	for i, req := range pending {
		if e.run.overdue(req.PID) {
			e.run.clients[req.PID].crashed = true
			e.run.crashes++
			return sched.Decision{Index: i, Crash: true}
		}
	}
	i := e.pick(w, pending, r)
	e.run.granted = pending[i].PID
	return sched.Decision{Index: i}
}

// explore runs one execution, with pick choosing each granted step, and
// returns the oracle's first violation ("" if none). tally accumulates
// the run's claims over tombstones and crashed clients.
func explore(seed uint64, pick picker, tally *[2]int) string {
	r := newExplorerRun()
	var prev [explorerWords]uint64
	for w := range prev {
		prev[w] = r.a.st.Load(w)
	}
	sched.Run(sched.Config{
		N:         3,
		Seed:      seed,
		Policy:    explorerPolicy{run: r, pick: pick},
		Body:      r.body,
		AfterStep: func() { r.afterStep(&prev) },
		Spaces:    map[string]shm.Probeable{r.a.ns.Label(): r.a.ns},
	})
	if r.err == "" {
		r.quiesce()
	}
	tally[0] += r.overTomb
	tally[1] += r.crashes
	return r.err
}

// dfs enumerates schedules depth first by re-execution. A decision's
// candidates are the pending PIDs. Continuing the last granted proc is
// free, and so is any choice once that proc has finished or crashed;
// switching away from it while it is still pending costs one preemption.
// next visits every schedule within a preemption budget exactly once.
type dfs struct {
	prefix []int
	path   []dfsNode
	last   int
}

type dfsNode struct {
	order      []int // candidate PIDs, the free choice first
	at         int   // index into order of the child taken
	cost       int   // preemptions spent before this decision
	preemptive bool  // whether choices past order[0] cost a preemption
}

// spent is the preemptions the node's taken child cost.
func (n dfsNode) spent() int {
	if n.preemptive && n.at > 0 {
		return 1
	}
	return 0
}

func (d *dfs) pick(_ sched.World, pending []sched.Request, _ *prng.Rand) int {
	depth := len(d.path)
	n := dfsNode{order: make([]int, 0, len(pending))}
	free := pending[0].PID
	for _, q := range pending {
		if q.PID == d.last {
			free, n.preemptive = q.PID, true
		}
	}
	n.order = append(n.order, free)
	for _, q := range pending {
		if q.PID != free {
			n.order = append(n.order, q.PID)
		}
	}
	if depth > 0 {
		prev := d.path[depth-1]
		n.cost = prev.cost + prev.spent()
	}
	if depth < len(d.prefix) {
		for i, pid := range n.order {
			if pid == d.prefix[depth] {
				n.at = i
			}
		}
	}
	d.path = append(d.path, n)
	d.last = n.order[n.at]
	for i, q := range pending {
		if q.PID == d.last {
			return i
		}
	}
	panic("explorer: no pending step for the chosen PID")
}

// next sets up the next schedule within budget preemptions, reporting
// false once every one has run.
func (d *dfs) next(budget int) bool {
	for depth := len(d.path) - 1; depth >= 0; depth-- {
		n := d.path[depth]
		if n.at+1 >= len(n.order) {
			continue
		}
		cost := n.cost
		if n.preemptive {
			cost++
		}
		if cost > budget {
			continue
		}
		d.prefix = d.prefix[:0]
		for _, m := range d.path[:depth] {
			d.prefix = append(d.prefix, m.order[m.at])
		}
		d.prefix = append(d.prefix, n.order[n.at+1])
		d.path, d.last = d.path[:0], -1
		return true
	}
	return false
}

// TestWordLeaseExplorer runs every schedule of the explorer's three procs
// within a preemption budget (3: about 26k schedules), then seeded random
// and Collider schedules, checking the oracle after every step. A reclaim
// that also clears unowned bits fails it at schedule 4,252 (508 at the
// budget of 2 that -short and -race runs use).
func TestWordLeaseExplorer(t *testing.T) {
	budget, randomRuns := 3, 5000
	if testing.Short() || raceDetector {
		budget, randomRuns = 2, 1000
	}
	d := &dfs{last: -1}
	runs := 0
	var tally [2]int
	for {
		if err := explore(1, d.pick, &tally); err != "" {
			t.Fatalf("schedule %v: %s", d.prefix, err)
		}
		runs++
		if !d.next(budget) {
			break
		}
	}
	collider := sched.Collider()
	uniform := func(_ sched.World, pending []sched.Request, r *prng.Rand) int { return r.Intn(len(pending)) }
	adversary := func(w sched.World, pending []sched.Request, r *prng.Rand) int {
		return collider.Next(w, pending, r).Index
	}
	for seed := range uint64(randomRuns) {
		if err := explore(seed, uniform, &tally); err != "" {
			t.Fatalf("random schedule, seed %d: %s", seed, err)
		}
		if err := explore(seed, adversary, &tally); err != "" {
			t.Fatalf("collider schedule, seed %d: %s", seed, err)
		}
	}
	t.Logf("%d schedules with ≤ %d preemptions, %d random and %d collider schedules: %d claims over a tombstone, %d clients crashed",
		runs, budget, randomRuns, randomRuns, tally[0], tally[1])
	if tally[0] == 0 || tally[1] == 0 {
		t.Fatal("no claim landed over a reclaim's tombstone, or no client was crashed: the schedules miss the hazard")
	}
}
