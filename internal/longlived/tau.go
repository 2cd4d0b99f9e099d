package longlived

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"shmrename/internal/shm"
	"shmrename/internal/taureg"
)

// TauConfig parameterizes a TauArena. The device shape is not a knob: it
// is the paper's, derived from the capacity (see NewTau).
type TauConfig struct {
	// MaxPasses bounds fallback sweep passes before reporting the arena
	// full; 0 means unlimited.
	MaxPasses int
	// WordScan claims the name inside a won device's block with the
	// word-granular engine: one snapshot-scan-CAS per bitmap word the block
	// overlaps (at most ⌈τ/64⌉+1 steps) instead of up to τ per-bit TAS
	// probes. Device-bit acquisition is untouched — the τ-register counting
	// hardware is inherently per-bit. Off by default: the per-bit block
	// scan is the deterministic-mode contract pinned by the golden
	// fingerprints.
	WordScan bool
	// SelfClocked builds self-clocked counting devices. Required for
	// native runs; simulated runs work either way (observably equivalent,
	// self-clocked is cheaper — the canonical churn workload uses it).
	// When false, Clock() returns the cycle hook the scheduler must run
	// after every granted step.
	SelfClocked bool
	// Padded pads the name bitmap for native runs.
	Padded bool
	// Lease enables the crash-recovery stamp layer on the name bitmap (see
	// LeaseOpts). Device bits are NOT stamped — the τ-register counting
	// hardware has no holder identity — so a holder that crashes between
	// winning a device bit and claiming a name, or mid-release after the
	// stamp retired but before ReleaseBit, leaks that device's counting
	// capacity until the device drains; names themselves are always
	// recovered. Nil (the default) costs nothing.
	Lease *LeaseOpts
	// Label prefixes the operation-space labels. Default "tauarena".
	Label string
}

func (c *TauConfig) fill() {
	if c.Label == "" {
		c.Label = "tauarena"
	}
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// TauArena is the long-lived adaptation of the paper's §III tight
// algorithm: an array of τ-register counting devices, each fronting a block
// of τ names. Acquire wins a TAS bit of a randomly probed device (the
// counting hardware confirms at most τ winners per device) and then scans
// the device's block for a free name; the threshold contract bounds block
// occupancy by τ, and a holder keeps its confirmed bit for the lifetime of
// its name, so at the instant a winner is confirmed at most τ-1 other
// holders own names in the block — a free name always exists. Release
// returns the name first and then the device bit (Device.ReleaseBit), both
// shm.OpClear operations, restoring the device's capacity.
//
// Unlike the one-shot Tight instance there is no geometric cluster
// schedule: churn keeps occupancy in flux, so Acquire probes devices
// uniformly and falls back to a deterministic sweep, mirroring the
// LevelArena's backstop.
type TauArena struct {
	cfg TauConfig
	cap int
	// width is the per-device TAS-bit count and random-probe budget (the
	// paper's 2·log n); tau is the per-device threshold and block size
	// (τ = log n).
	width, tau int
	devices    []*taureg.Device
	names      *shm.NameSpace
	// bitOf[name] records which device bit the name's current holder won
	// (+1, 0 = unset). Written by the holder between winning the name and
	// releasing it; the atomic store orders it against the name bit.
	bitOf []atomic.Int32
	// stamps is the lease-stamp array over the name bitmap; nil when
	// TauConfig.Lease is off.
	stamps *shm.Stamps
}

var _ Arena = (*TauArena)(nil)
var _ Recoverable = (*TauArena)(nil)

// NewTau builds a τ-register arena guaranteeing capacity concurrent
// holders. Each device has width 2·⌈log₂ capacity⌉ TAS bits, clamped to
// [8, 64], and threshold τ = width/2; an acquire makes width random
// (device, bit) attempts before the deterministic fallback sweep.
func NewTau(capacity int, cfg TauConfig) *TauArena {
	if capacity < 1 {
		panic("longlived: capacity must be >= 1")
	}
	cfg.fill()
	width := min(max(2*ceilLog2(capacity), 8), taureg.MaxWidth)
	tau := width / 2
	nd := (capacity + tau - 1) / tau
	mkSpace := shm.NewNameSpace
	if cfg.Padded {
		mkSpace = shm.NewNameSpacePadded
	}
	a := &TauArena{
		cfg:     cfg,
		cap:     capacity,
		width:   width,
		tau:     tau,
		devices: make([]*taureg.Device, nd),
		names:   mkSpace(cfg.Label+":names", nd*tau),
		bitOf:   make([]atomic.Int32, nd*tau),
	}
	for d := range a.devices {
		a.devices[d] = taureg.NewDevice(fmt.Sprintf("%s:dev%d", cfg.Label, d),
			width, tau, cfg.SelfClocked)
	}
	if cfg.Lease.enabled() {
		a.stamps = shm.NewStamps(cfg.Label+":lease", a.names.Size())
		a.names.AttachStamps(a.stamps, 0)
	}
	return a
}

// Label implements Arena.
func (a *TauArena) Label() string {
	scan := "bit"
	if a.cfg.WordScan {
		scan = "word"
	}
	return fmt.Sprintf("tau-longlived(devices=%d,w=%d,tau=%d,scan=%s)",
		len(a.devices), a.width, a.tau, scan)
}

// Capacity implements Arena.
func (a *TauArena) Capacity() int { return a.cap }

// NameBound implements Arena.
func (a *TauArena) NameBound() int { return a.names.Size() }

// NumDevices returns the device count (diagnostics).
func (a *TauArena) NumDevices() int { return len(a.devices) }

// Device returns counting device d (diagnostics and tests).
func (a *TauArena) Device(d int) *taureg.Device { return a.devices[d] }

// Tau returns the per-device threshold (diagnostics).
func (a *TauArena) Tau() int { return a.tau }

// leaseStamp returns the proc's current lease stamp, or 0 with leases off.
func (a *TauArena) leaseStamp(p *shm.Proc) uint64 {
	if a.stamps == nil {
		return 0
	}
	return a.cfg.Lease.stamp(p)
}

// Acquire implements Arena.
func (a *TauArena) Acquire(p *shm.Proc) int {
	stamp := a.leaseStamp(p)
	r := p.Rand()
	nd := len(a.devices)
	for t := 0; t < a.width; t++ {
		d := r.Intn(nd)
		b := r.Intn(a.width)
		if a.devices[d].AcquireBit(p, b) == taureg.Won {
			return a.claimName(p, d, b, r.Intn(a.tau), stamp)
		}
	}
	// Deterministic fallback sweep, the termination guarantee: walk the
	// devices, skip currently full ones, try their free bits.
	for pass := 0; a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses; pass++ {
		for d := 0; d < nd; d++ {
			dev := a.devices[d]
			if dev.Full(p) {
				continue
			}
			in := dev.ReadRequests(p)
			for b := 0; b < a.width; b++ {
				if in&(uint64(1)<<b) != 0 {
					continue
				}
				if dev.AcquireBit(p, b) == taureg.Won {
					return a.claimName(p, d, b, 0, stamp)
				}
			}
		}
	}
	return -1
}

// claimName scans device d's name block starting at the random offset
// until it wins a name, then records bit — the device bit the caller just
// won — for Release to clear later. The scan retries: a releasing holder
// may transiently keep its name while the block's bit count already
// admitted us, but a free name is guaranteed at every instant (block
// holders < τ), so the scan terminates. With WordScan the block is claimed
// through word snapshots (ClaimFirstFreeRange): at most ⌈τ/64⌉+1 steps per
// attempt instead of τ single-bit probes.
func (a *TauArena) claimName(p *shm.Proc, d, bit, start int, stamp uint64) int {
	tau := a.tau
	base := d * tau
	if a.cfg.WordScan {
		for {
			g := -1
			if stamp != 0 {
				g = a.names.ClaimFirstFreeRangeStamped(p, base, base+tau, stamp)
			} else {
				g = a.names.ClaimFirstFreeRange(p, base, base+tau)
			}
			if g >= 0 {
				a.recordBit(p, g, bit)
				return g
			}
		}
	}
	for {
		for j := 0; j < tau; j++ {
			g := base + (start+j)%tau
			won := false
			if stamp != 0 {
				won = a.names.TryClaimStamped(p, g, stamp)
			} else {
				won = a.names.TryClaim(p, g)
			}
			if won {
				a.recordBit(p, g, bit)
				return g
			}
		}
	}
}

// recordBit installs the device-bit record of a freshly won name. The
// install is a swap, not a store: a release that raced a recovery reclaim
// can leave a stale record behind (see Release), and its device bit is
// unreleased — whoever removes a record owns its release, so the new
// grant returns the residue before recording its own bit.
func (a *TauArena) recordBit(p *shm.Proc, name, bit int) {
	if old := a.bitOf[name].Swap(int32(bit)+1) - 1; old >= 0 {
		a.devices[name/a.tau].ReleaseBit(p, int(old))
	}
}

// AcquireN implements Arena: k successive single acquires. A τ name is
// inseparable from the device bit that admitted it — the threshold
// contract counts bits, not names — so the batch cannot be served by one
// word claim; the word-granular saving (WordScan) lives inside each
// acquire's block scan instead.
func (a *TauArena) AcquireN(p *shm.Proc, k int, out []int) []int {
	for ; k > 0; k-- {
		n := a.Acquire(p)
		if n < 0 {
			break
		}
		out = append(out, n)
	}
	return out
}

// Release implements Arena.
func (a *TauArena) Release(p *shm.Proc, name int) {
	if name < 0 || name >= a.names.Size() {
		panic(fmt.Sprintf("longlived: name %d outside arena bound %d", name, a.names.Size()))
	}
	b := a.bitOf[name].Swap(0) - 1
	if b < 0 {
		// No recorded device bit: the name is free, a recovery sweep's
		// reclaim already claimed the bookkeeping, or another caller's
		// concurrent release of the same name did (a caller protocol
		// violation). Releasing nothing keeps the arena consistent — the
		// record's owner returns the bit — and the churn monitor and
		// Held() drain checks surface violations in tests.
		return
	}
	dev := a.devices[name/a.tau]
	if a.stamps == nil {
		a.names.Free(p, name)
		dev.ReleaseBit(p, int(b))
		return
	}
	// Whoever removes a bitOf record owns releasing the recorded device
	// bit; the stamp CAS inside FreeStamped decides whether the record we
	// just swapped was this grant's own. Success proves no reclaim
	// intervened since the grant (a reclaim would have moved the stamp off
	// our holder for good), so b is ours and is released exactly once
	// here.
	if a.names.FreeStamped(p, name, a.cfg.Lease.holder(p)) {
		dev.ReleaseBit(p, int(b))
		return
	}
	// Declined: a reclaim is in flight or completed — possibly with the
	// name already re-granted, in which case b is the NEW holder's record
	// we stole, and releasing it would let the device admit more than τ
	// holders. Hand the record back so its release obligation travels
	// with it (the sweep's reclaim swap, the regrant's own release, or
	// the next grant's recordBit install discharges it). If the slot was
	// re-recorded meanwhile, the swapped b is an unrecorded, unreleased
	// bit of this device — ours to return.
	if !a.bitOf[name].CompareAndSwap(0, int32(b)+1) {
		dev.ReleaseBit(p, int(b))
	}
}

// ReleaseN implements Arena: per-name releases. Each name must return its
// own device bit (ReleaseBit restores that device's counting capacity), so
// unlike the level arena there is no word-batched clearing to coalesce
// into.
func (a *TauArena) ReleaseN(p *shm.Proc, names []int) {
	for _, n := range names {
		a.Release(p, n)
	}
}

// LeaseDomains implements Recoverable: one domain over the name bitmap.
// Reclaiming a crashed holder's name also returns its recorded device bit
// (when the crash left one recorded) so the counting device regains
// capacity; a crash that died before recording the bit leaks that device
// slot, as documented on TauConfig.Lease.
func (a *TauArena) LeaseDomains() []LeaseDomain {
	if a.stamps == nil {
		return nil
	}
	return []LeaseDomain{{
		Base:   0,
		Stamps: a.stamps,
		IsHeld: a.IsHeld,
		Reclaim: func(p *shm.Proc, i int) {
			if b := a.bitOf[i].Swap(0) - 1; b >= 0 {
				a.devices[i/a.tau].ReleaseBit(p, int(b))
			}
			a.names.Free(p, i)
		},
	}}
}

// Touch implements Arena.
func (a *TauArena) Touch(p *shm.Proc, name int) { a.names.Claimed(p, name) }

// IsHeld implements Arena.
func (a *TauArena) IsHeld(name int) bool { return a.names.Probe(name) }

// Held implements Arena.
func (a *TauArena) Held() int { return a.names.CountClaimed() }

// Probeables implements Arena.
func (a *TauArena) Probeables() map[string]shm.Probeable {
	m := make(map[string]shm.Probeable, len(a.devices)+1)
	for _, d := range a.devices {
		m[d.Label()] = d
	}
	m[a.names.Label()] = a.names
	return m
}

// Clock implements Arena.
func (a *TauArena) Clock() func() {
	if a.cfg.SelfClocked {
		return nil
	}
	return func() {
		for _, d := range a.devices {
			d.Cycle()
		}
	}
}
