package recovery

import (
	"math/bits"
	"testing"
	"time"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/sharded"
	"shmrename/internal/shm"
)

// leaseBackends maps each backend shape to a constructor of a
// lease-enabled arena over the given epoch source.
var leaseBackends = map[string]func(ep shm.EpochSource) longlived.Recoverable{
	"level": func(ep shm.EpochSource) longlived.Recoverable {
		return longlived.NewLevel(64, longlived.LevelConfig{Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4})
	},
	"level-word": func(ep shm.EpochSource) longlived.Recoverable {
		return longlived.NewLevel(64, longlived.LevelConfig{Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4, WordScan: true})
	},
	"tau": func(ep shm.EpochSource) longlived.Recoverable {
		return longlived.NewTau(64, longlived.TauConfig{Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4, SelfClocked: true})
	},
	"tau-word": func(ep shm.EpochSource) longlived.Recoverable {
		return longlived.NewTau(64, longlived.TauConfig{Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4, SelfClocked: true, WordScan: true})
	},
	"sharded": func(ep shm.EpochSource) longlived.Recoverable {
		return sharded.New(64, sharded.Config{Shards: 4, Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4})
	},
}

func acquireAll(t *testing.T, a longlived.Recoverable, p *shm.Proc, k int) []int {
	t.Helper()
	names := make([]int, 0, k)
	for range k {
		n := a.Acquire(p)
		if n < 0 {
			t.Fatalf("acquire %d/%d failed", len(names), k)
		}
		names = append(names, n)
	}
	return names
}

// TestSweepReclaimsDeadHolder is the core guarantee, per backend: a holder
// that stops heartbeating past the TTL loses its names back to the pool,
// and the full capacity is re-acquirable afterwards — which for the τ
// backend also proves the reclaim returned the counting-device bits.
func TestSweepReclaimsDeadHolder(t *testing.T) {
	for label, mk := range leaseBackends {
		t.Run(label, func(t *testing.T) {
			ep := shm.NewCounterEpochs(1)
			a := mk(ep)
			p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
			acquireAll(t, a, p, a.Capacity())
			// The holder dies: no further steps, no heartbeats.
			ep.Advance(10)
			sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
			reaper := shm.NewProc(200, prng.NewStream(1, 200), nil, 0)
			res := sw.Sweep(reaper)
			if res.Reclaimed != a.Capacity() {
				t.Fatalf("reclaimed %d of %d", res.Reclaimed, a.Capacity())
			}
			if h := a.Held(); h != 0 {
				t.Fatalf("%d names still held after sweep", h)
			}
			// The pool must be whole again: full capacity from a new client.
			p2 := shm.NewProc(2, prng.NewStream(1, 2), nil, 0)
			acquireAll(t, a, p2, a.Capacity())
			if got := sw.Counters().Reclaimed; got != uint64(a.Capacity()) {
				t.Fatalf("counter reclaimed %d", got)
			}
		})
	}
}

// TestSweepAdoptsOrphanOnAbsentPage: a claim bit set under a stamp page
// nothing has written yet (a claimant that won the bit and crashed before
// its first publish there) is adopted like any orphan, the adoption
// installing the page, and reclaimed once stale. A heartbeat, which skips
// absent pages, neither renews nor installs anything there.
func TestSweepAdoptsOrphanOnAbsentPage(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	a := longlived.NewLevel(256, longlived.LevelConfig{Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4})
	d := a.LeaseDomains()[0]
	const orphan = 300 // in the backstop level, far from any claim
	p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	if !d.Seize(p, orphan) {
		t.Fatal("seize of a free name failed")
	}
	if got := longlived.HeartbeatHolder(a, p, 2, ep.Now()); got != 0 || d.Stamps.Resident(orphan) {
		t.Fatalf("heartbeat renewed %d leases on an absent page (resident now: %v)", got, d.Stamps.Resident(orphan))
	}
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	reaper := shm.NewProc(200, prng.NewStream(1, 200), nil, 0)
	if res := sw.Sweep(reaper); res.Adopted != 1 {
		t.Fatalf("sweep %+v, want the orphan adopted", res)
	}
	if h, _ := shm.UnpackStamp(d.Stamps.Load(orphan)); h != shm.HolderOrphan {
		t.Fatalf("orphan stamped by holder %d", h)
	}
	ep.Advance(10)
	if res := sw.Sweep(reaper); res.Reclaimed != 1 || a.IsHeld(orphan) {
		t.Fatalf("sweep %+v left the stale orphan held", res)
	}
}

// TestSweepSparesLiveHolder pins the no-lost-name side: a holder whose
// heartbeat lands before the sweep keeps every name even far past the TTL
// of its original stamps.
func TestSweepSparesLiveHolder(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	lease := &longlived.LeaseOpts{Epochs: ep, Holder: func(*shm.Proc) uint64 { return 7 }}
	a := longlived.NewLevel(64, longlived.LevelConfig{Lease: lease, MaxPasses: 4})
	p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	names := acquireAll(t, a, p, 8)
	ep.Advance(100)
	if got := longlived.HeartbeatHolder(a, p, 7, ep.Now()); got != len(names) {
		t.Fatalf("heartbeat renewed %d of %d", got, len(names))
	}
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	if res := sw.Sweep(shm.NewProc(200, prng.NewStream(1, 200), nil, 0)); res.Reclaimed != 0 || res.Adopted != 0 {
		t.Fatalf("sweep disturbed a live holder: %+v", res)
	}
	for _, n := range names {
		if !a.IsHeld(n) {
			t.Fatalf("name %d lost despite heartbeat", n)
		}
	}
}

// TestSweepAliveOracle: a TTL-stale holder that the liveness oracle
// reports alive is spared; once the oracle flips, the names are reclaimed.
func TestSweepAliveOracle(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	lease := &longlived.LeaseOpts{Epochs: ep, Holder: func(*shm.Proc) uint64 { return 9 }}
	a := longlived.NewLevel(64, longlived.LevelConfig{Lease: lease, MaxPasses: 4})
	p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	acquireAll(t, a, p, 4)
	ep.Advance(100)
	alive := true
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep, Alive: func(h uint64) bool {
		if h != 9 {
			t.Errorf("oracle asked about holder %d", h)
		}
		return alive
	}})
	reaper := shm.NewProc(200, prng.NewStream(1, 200), nil, 0)
	if res := sw.Sweep(reaper); res.Reclaimed != 0 {
		t.Fatalf("reclaimed a holder the oracle reported alive: %+v", res)
	}
	alive = false
	if res := sw.Sweep(reaper); res.Reclaimed != 4 {
		t.Fatalf("reclaimed %d after oracle flip", res.Reclaimed)
	}
	if a.Held() != 0 {
		t.Fatal("names survived a dead-oracle sweep")
	}
}

// crashOnce arms the stamps' crash hook to fire one LeaseCrash at the
// given point, and returns a function running f with the panic recovered.
func crashOnce(st *shm.Stamps, point shm.CrashPoint) func(f func()) (crashed bool) {
	armed := true
	st.SetCrashHook(func(p *shm.Proc, pt shm.CrashPoint, name int) bool {
		if armed && pt == point {
			armed = false
			return true
		}
		return false
	})
	return func(f func()) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(shm.LeaseCrash); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		f()
		return false
	}
}

// TestSweepAdoptsPrePublishCrash: a claimer that dies after winning the
// claim bit but before publishing its stamp leaves a bit with no owner.
// The sweep adopts it (grace period for in-flight publishers), then
// reclaims the orphan once stale.
func TestSweepAdoptsPrePublishCrash(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	lease := &longlived.LeaseOpts{Epochs: ep}
	a := longlived.NewLevel(64, longlived.LevelConfig{Lease: lease, MaxPasses: 4})
	st := a.LeaseDomains()[0].Stamps
	p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	run := crashOnce(st, shm.CrashPrePublish)
	if !run(func() { a.Acquire(p) }) {
		t.Fatal("crash hook did not fire")
	}
	if a.Held() != 1 {
		t.Fatalf("held %d after pre-publish crash, want the orphaned bit", a.Held())
	}
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	reaper := shm.NewProc(200, prng.NewStream(1, 200), nil, 0)
	if res := sw.Sweep(reaper); res.Adopted != 1 || res.Reclaimed != 0 {
		t.Fatalf("first sweep %+v, want one adoption", res)
	}
	if a.Held() != 1 {
		t.Fatal("adoption must not free the name yet")
	}
	ep.Advance(10)
	if res := sw.Sweep(reaper); res.Reclaimed != 1 {
		t.Fatalf("second sweep %+v, want the orphan reclaimed", res)
	}
	if a.Held() != 0 {
		t.Fatal("orphan not freed")
	}
	acquireAll(t, a, shm.NewProc(2, prng.NewStream(1, 2), nil, 0), 64)
}

// TestSweepMidReleaseCrash: a holder that dies after retiring its stamp
// but before clearing the claim bit leaves the same orphan shape; the
// adopt-then-reclaim path recovers it.
func TestSweepMidReleaseCrash(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	lease := &longlived.LeaseOpts{Epochs: ep}
	a := longlived.NewLevel(64, longlived.LevelConfig{Lease: lease, MaxPasses: 4})
	st := a.LeaseDomains()[0].Stamps
	p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	n := a.Acquire(p)
	if n < 0 {
		t.Fatal("acquire")
	}
	run := crashOnce(st, shm.CrashMidRelease)
	if !run(func() { a.Release(p, n) }) {
		t.Fatal("crash hook did not fire")
	}
	if !a.IsHeld(n) || st.Load(n) != 0 {
		t.Fatalf("mid-release crash shape wrong: held=%v stamp=%#x", a.IsHeld(n), st.Load(n))
	}
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	reaper := shm.NewProc(200, prng.NewStream(1, 200), nil, 0)
	if res := sw.Sweep(reaper); res.Adopted != 1 {
		t.Fatalf("sweep %+v, want adoption", res)
	}
	ep.Advance(10)
	if res := sw.Sweep(reaper); res.Reclaimed != 1 {
		t.Fatalf("sweep %+v, want reclaim", res)
	}
	if a.Held() != 0 {
		t.Fatal("name not recovered")
	}
}

// TestSweepResumesCrashedReaper: a suspect mark left by a reaper that died
// mid-reclaim is resumed — the name re-cleared and the mark retired — once
// the mark itself goes stale.
func TestSweepResumesCrashedReaper(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	lease := &longlived.LeaseOpts{Epochs: ep}
	a := longlived.NewLevel(64, longlived.LevelConfig{Lease: lease, MaxPasses: 4})
	d := a.LeaseDomains()[0]
	p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	n := a.Acquire(p)
	// A reaper observed the stamp, marked it suspect, and crashed before
	// clearing the name.
	if !d.Stamps.BeginReclaim(n, d.Stamps.Load(n), ep.Now()) {
		t.Fatal("plant suspect")
	}
	ep.Advance(10)
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	res := sw.Sweep(shm.NewProc(200, prng.NewStream(1, 200), nil, 0))
	if res.Resumed != 1 {
		t.Fatalf("sweep %+v, want one resumed reclaim", res)
	}
	if a.Held() != 0 {
		t.Fatal("resumed reclaim did not free the name")
	}
	if h, _ := shm.UnpackStamp(d.Stamps.Load(n)); h != shm.HolderTomb {
		t.Fatalf("suspect not retired: holder %d", h)
	}
}

// tauHeldBits counts the set request bits across every counting device —
// the τ backend's admission budget currently spent.
func tauHeldBits(a *longlived.TauArena, p *shm.Proc) int {
	c := 0
	for d := 0; d < a.NumDevices(); d++ {
		c += bits.OnesCount64(a.Device(d).ReadRequests(p))
	}
	return c
}

// TestTauStaleReleaseSparesRegrantedBit pins the τ backend's release/reclaim
// race: holder A's name is reclaimed (lease expired) and re-granted to B,
// and only then does A's long-delayed Release run. The stale release must
// not free B's counting-device bit — that would let the device admit more
// than τ holders, breaking claimName's termination argument — and B's own
// releases must still drain every bit (nothing double-released, nothing
// leaked).
func TestTauStaleReleaseSparesRegrantedBit(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	// Capacity 1: one device (width 8, τ 4) fronting names 0..3, so B's
	// re-acquisition of the block necessarily re-grants A's old name.
	a := longlived.NewTau(1, longlived.TauConfig{Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4, SelfClocked: true})
	pA := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	nA := a.Acquire(pA)
	if nA < 0 {
		t.Fatal("acquire")
	}
	// A goes silent past the TTL; the sweep reclaims its name and bit.
	ep.Advance(10)
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	reaper := shm.NewProc(200, prng.NewStream(1, 200), nil, 0)
	if res := sw.Sweep(reaper); res.Reclaimed != 1 {
		t.Fatalf("sweep %+v, want A's name reclaimed", res)
	}
	// B fills the whole block — τ names backed by τ device bits.
	pB := shm.NewProc(2, prng.NewStream(1, 2), nil, 0)
	names := acquireAll(t, a, pB, a.Tau())
	if !a.IsHeld(nA) {
		t.Fatalf("name %d not re-granted with the full block held", nA)
	}
	// The stale holder finally runs its release.
	a.Release(pA, nA)
	if !a.IsHeld(nA) {
		t.Fatal("stale release freed the re-granted name")
	}
	if got := tauHeldBits(a, reaper); got != a.Tau() {
		t.Fatalf("device bits %d after stale release, want %d (a freed bit admits >τ holders)", got, a.Tau())
	}
	// B's releases drain everything: each bit returned exactly once.
	for _, n := range names {
		a.Release(pB, n)
	}
	if h := a.Held(); h != 0 {
		t.Fatalf("%d names held after drain", h)
	}
	if got := tauHeldBits(a, reaper); got != 0 {
		t.Fatalf("%d device bits leaked after drain", got)
	}
}

// TestDelayedSweeperCannotResumeReclaimedSuspect pins the suspect-resume
// exclusivity: a sweeper that observed a stale suspect mark and then
// stalled — while another sweeper resumed the reclaim and a claimant
// re-acquired the name — must lose the resume CAS and touch nothing. (The
// sweep routes suspect resumption through the same two-phase reclaim as
// every other case, so acting always requires winning the CAS on the
// observed stamp.)
func TestDelayedSweeperCannotResumeReclaimedSuspect(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	a := longlived.NewTau(1, longlived.TauConfig{Lease: &longlived.LeaseOpts{Epochs: ep}, MaxPasses: 4, SelfClocked: true})
	d := a.LeaseDomains()[0]
	pA := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	nA := a.Acquire(pA)
	// A reaper marked the stamp suspect and crashed before clearing.
	if !d.Stamps.BeginReclaim(nA, d.Stamps.Load(nA), ep.Now()) {
		t.Fatal("plant suspect")
	}
	ep.Advance(10)
	// The delayed sweeper loads the stale mark... and stalls.
	obs := d.Stamps.Load(nA)
	stale := ep.Now()
	// Meanwhile a second sweeper resumes the reclaim and B re-acquires the
	// whole block, A's old name included.
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	if res := sw.Sweep(shm.NewProc(200, prng.NewStream(1, 200), nil, 0)); res.Resumed != 1 {
		t.Fatalf("resume sweep %+v, want one resumed reclaim", res)
	}
	pB := shm.NewProc(2, prng.NewStream(1, 2), nil, 0)
	acquireAll(t, a, pB, a.Tau())
	after := d.Stamps.Load(nA)
	reaper := shm.NewProc(201, prng.NewStream(1, 201), nil, 0)
	bitsHeld := tauHeldBits(a, reaper)
	// The delayed sweeper wakes and acts on its stale observation.
	if sw.reclaim(reaper, d, nA, obs, stale) {
		t.Fatal("delayed sweeper reclaimed a re-granted name")
	}
	if !a.IsHeld(nA) {
		t.Fatal("live holder lost its claim bit to a delayed sweeper")
	}
	if got := d.Stamps.Load(nA); got != after {
		t.Fatalf("stamp moved %#x -> %#x under a lost resume", after, got)
	}
	if got := tauHeldBits(a, reaper); got != bitsHeld {
		t.Fatalf("device bits %d -> %d under a lost resume", bitsHeld, got)
	}
}

// TestShardedLeaseDomains pins the frontend's domain geometry: one domain
// per shard, bases ascending by the shard stride, jointly tiling the
// arena's name bound.
func TestShardedLeaseDomains(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	lease := &longlived.LeaseOpts{Epochs: ep}
	a := sharded.New(64, sharded.Config{Shards: 4, Lease: lease, MaxPasses: 4})
	ds := a.LeaseDomains()
	if len(ds) != 4 {
		t.Fatalf("%d domains, want 4", len(ds))
	}
	covered := 0
	for s, d := range ds {
		if d.Base != a.ShardBase(s) {
			t.Fatalf("domain %d base %d, want shard base %d", s, d.Base, a.ShardBase(s))
		}
		covered += d.Stamps.Size()
	}
	if covered != a.NameBound() {
		t.Fatalf("domains cover %d of %d names", covered, a.NameBound())
	}
}

// TestReaperBackground runs the background reaper against a native arena:
// a holder dies, the epoch clock moves past the TTL, and the reaper frees
// the names within a bounded wait without any explicit Sweep call.
func TestReaperBackground(t *testing.T) {
	ep := shm.NewCounterEpochs(1)
	lease := &longlived.LeaseOpts{Epochs: ep}
	a := longlived.NewLevel(64, longlived.LevelConfig{Lease: lease, MaxPasses: 4})
	p := shm.NewProc(1, prng.NewStream(1, 1), nil, 0)
	acquireAll(t, a, p, 16)
	sw := NewSweeper(a, Config{TTL: 5, Epochs: ep})
	stop := sw.Reaper(shm.NewProc(200, prng.NewStream(1, 200), nil, 0), time.Millisecond)
	defer stop()
	ep.Advance(10)
	deadline := time.Now().Add(5 * time.Second)
	for a.Held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper left %d names held", a.Held())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if got := sw.Counters().Reclaimed; got != 16 {
		t.Fatalf("counter reclaimed %d", got)
	}
}
