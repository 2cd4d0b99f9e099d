package taureg

import (
	"fmt"

	"shmrename/internal/shm"
)

// Spec describes one device in an Array: its threshold τ and the number of
// names it serves. For renaming τ must equal Names so that every confirmed
// winner is guaranteed a name in the device's block (§II.B: "It must win
// one of the TAS registers because there are exactly τ of them and at most
// τ processes that are allowed to search").
type Spec struct {
	Tau   int
	Names int
}

// Array is the auxiliary structure Taux of §III: a sequence of τ-registers
// (counting devices plus name blocks) covering a contiguous name space.
// Device d serves the global names [NameBase(d), NameBase(d)+Spec.Names).
type Array struct {
	label    string
	width    int
	devices  []*Device
	nameBase []int
	names    *shm.NameSpace
}

// NewArray builds an array of counting devices with the shared bit width,
// one per spec. Each spec must satisfy 0 <= Tau <= width and Tau == Names.
// selfClocked selects native (true) or externally clocked (false) devices.
// The name bitmap is packed (64 names/word); native-mode callers that want
// it on cache lines of its own use NewArrayPadded.
func NewArray(label string, width int, specs []Spec, selfClocked bool) *Array {
	return newArray(label, width, specs, selfClocked, false)
}

// NewArrayPadded is NewArray with a line-aligned name bitmap: packed words
// rounded up to whole 64-byte cache lines that no other allocation shares,
// for runs on real cores.
func NewArrayPadded(label string, width int, specs []Spec, selfClocked bool) *Array {
	return newArray(label, width, specs, selfClocked, true)
}

func newArray(label string, width int, specs []Spec, selfClocked, padded bool) *Array {
	total := 0
	for i, s := range specs {
		if s.Tau != s.Names {
			panic(fmt.Sprintf("taureg: device %d has tau %d != names %d", i, s.Tau, s.Names))
		}
		if s.Tau < 0 || s.Tau > width {
			panic(fmt.Sprintf("taureg: device %d tau %d outside [0,%d]", i, s.Tau, width))
		}
		total += s.Names
	}
	mkSpace := shm.NewNameSpace
	if padded {
		mkSpace = shm.NewNameSpacePadded
	}
	a := &Array{
		label:    label,
		width:    width,
		devices:  make([]*Device, len(specs)),
		nameBase: make([]int, len(specs)),
		names:    mkSpace(label+":names", total),
	}
	base := 0
	for i, s := range specs {
		a.devices[i] = NewDevice(fmt.Sprintf("%s:dev%d", label, i), width, s.Tau, selfClocked)
		a.nameBase[i] = base
		base += s.Names
	}
	return a
}

// NumDevices returns the number of τ-registers in the array.
func (a *Array) NumDevices() int { return len(a.devices) }

// Width returns the per-device bit width (2·log n in the paper).
func (a *Array) Width() int { return a.width }

// Device returns device d.
func (a *Array) Device(d int) *Device { return a.devices[d] }

// NameBase returns the first global name served by device d.
func (a *Array) NameBase(d int) int { return a.nameBase[d] }

// NameCount returns how many names device d serves (its τ).
func (a *Array) NameCount(d int) int { return a.devices[d].Tau() }

// TotalNames returns the size of the name space the array covers.
func (a *Array) TotalNames() int { return a.names.Size() }

// TotalBits returns the number of TAS bits across all counting devices —
// the "extra space" of Theorem 5.
func (a *Array) TotalBits() int { return len(a.devices) * a.width }

// TryName test-and-sets local name j of device d on behalf of p and, on
// success, returns the global name. One step.
func (a *Array) TryName(p *shm.Proc, d, j int) (int, bool) {
	if j < 0 || j >= a.NameCount(d) {
		panic(fmt.Sprintf("taureg: name %d outside device %d's block of %d", j, d, a.NameCount(d)))
	}
	g := a.nameBase[d] + j
	if a.names.TryClaim(p, g) {
		return g, true
	}
	return 0, false
}

// ClaimName runs the §II.B search: a process that won a TAS bit of device
// d systematically goes through the device's name registers until it wins
// one. At most τ winners exist for τ names, so the search always succeeds;
// it costs at most τ steps.
func (a *Array) ClaimName(p *shm.Proc, d int) int {
	for j := 0; j < a.NameCount(d); j++ {
		if g, ok := a.TryName(p, d, j); ok {
			return g
		}
	}
	panic(fmt.Sprintf("taureg: device %d confirmed more winners than names", d))
}

// CycleAll advances every device's clock by one cycle. In simulated
// executions the harness installs it as the scheduler's AfterStep hook.
func (a *Array) CycleAll() {
	for _, d := range a.devices {
		d.Cycle()
	}
}

// ConfirmedTotal sums popcnt(out_reg) over all devices (diagnostics).
func (a *Array) ConfirmedTotal() int {
	t := 0
	for _, d := range a.devices {
		t += d.ConfirmedCount()
	}
	return t
}

// NamesClaimed returns how many names have been claimed (diagnostics).
func (a *Array) NamesClaimed() int { return a.names.CountClaimed() }

// Probeables exposes the array's shared structures to adaptive adversary
// policies, keyed by the operation-space labels its methods emit.
func (a *Array) Probeables() map[string]shm.Probeable {
	m := make(map[string]shm.Probeable, len(a.devices)+1)
	for _, d := range a.devices {
		m[d.Label()] = d
	}
	m[a.names.Label()] = a.names
	return m
}
