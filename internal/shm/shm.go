// Package shm is the shared-memory kernel of the repository.
//
// It defines the per-process execution context (Proc) through which every
// shared-memory operation flows, the operation descriptors the adaptive
// adversary gets to see, and the hardware test-and-set name space used by
// the renaming algorithms of the paper.
//
// Two execution modes share all algorithm and substrate code:
//
//   - Simulated mode: each Proc carries a Gate; every operation first blocks
//     until the scheduler (package sched) grants the step. Exactly one
//     operation is in flight at any time, so executions are deterministic
//     and the scheduling policy is a fully adaptive adversary in the sense
//     of §II.A of the paper.
//   - Native mode: the Gate is nil and operations hit sync/atomic directly
//     on real cores, for wall-clock benchmarks.
//
// Step accounting: one call to Proc.Step is one access to shared memory,
// matching the paper's definition of step complexity (the maximum number of
// shared-memory accesses performed by any process).
//
// Hot-path addressing: operations identify their target structure by an
// interned integer SpaceID, never by string. Structures intern their label
// once at construction; traces and adversaries translate IDs back to labels
// through the registry when (and only when) they need human-readable names.
package shm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"shmrename/internal/prng"
)

// OpKind classifies a shared-memory operation for the adversary's benefit.
type OpKind uint8

// Operation kinds. The adversary sees the kind and the target of every
// pending operation, which (together with the process coin flips already
// embodied in the target) gives it the full visibility the model grants.
const (
	// OpTAS is a test-and-set on a register or TAS bit.
	OpTAS OpKind = iota
	// OpRead is a read of a shared register (e.g. a device's out_reg).
	OpRead
	// OpClear is a clearing write that releases a previously won TAS
	// register, the operation long-lived renaming adds to the one-shot
	// model: names return to the pool and may be reacquired.
	OpClear
)

// String returns a short human-readable name for the kind.
func (k OpKind) String() string {
	switch k {
	case OpTAS:
		return "tas"
	case OpRead:
		return "read"
	case OpClear:
		return "clear"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// SpaceID is an interned operation-space identifier. IDs are small dense
// integers handed out by InternSpace, so schedulers and adversaries can use
// them as direct array indices instead of hashing strings on every step.
type SpaceID int32

// NoSpace is an invalid sentinel SpaceID. InternSpace never returns it;
// note that a zero-valued Op carries Space 0, which IS a valid interned ID
// (the first label registered), so "unset" checks must compare against
// NoSpace explicitly, never against the zero value.
const NoSpace SpaceID = -1

// spaceRegistry maps labels to dense IDs and back. Interning happens at
// structure-construction time, never on the per-step hot path.
var spaceRegistry = struct {
	mu     sync.RWMutex
	ids    map[string]SpaceID
	labels []string
}{ids: make(map[string]SpaceID)}

// InternSpace returns the stable SpaceID for a label, allocating one the
// first time the label is seen. Equal labels always map to the same ID for
// the lifetime of the process.
func InternSpace(label string) SpaceID {
	spaceRegistry.mu.RLock()
	id, ok := spaceRegistry.ids[label]
	spaceRegistry.mu.RUnlock()
	if ok {
		return id
	}
	spaceRegistry.mu.Lock()
	defer spaceRegistry.mu.Unlock()
	if id, ok := spaceRegistry.ids[label]; ok {
		return id
	}
	id = SpaceID(len(spaceRegistry.labels))
	spaceRegistry.ids[label] = id
	spaceRegistry.labels = append(spaceRegistry.labels, label)
	return id
}

// SpaceLabel translates an interned SpaceID back to its label, for traces
// and reports. Unknown IDs format as "space(<id>)".
func SpaceLabel(id SpaceID) string {
	spaceRegistry.mu.RLock()
	defer spaceRegistry.mu.RUnlock()
	if id >= 0 && int(id) < len(spaceRegistry.labels) {
		return spaceRegistry.labels[id]
	}
	return fmt.Sprintf("space(%d)", int32(id))
}

// NumSpaces returns the number of interned labels; IDs lie in [0, NumSpaces).
// Schedulers size their dense SpaceID-indexed tables with it.
func NumSpaces() int {
	spaceRegistry.mu.RLock()
	defer spaceRegistry.mu.RUnlock()
	return len(spaceRegistry.labels)
}

// Op describes one shared-memory operation: which structure is accessed
// (Space, the structure's interned ID) and the address within it. It is
// built on every simulated step, so it deliberately carries no pointer or
// string field: 12 bytes, trivially copyable.
type Op struct {
	Kind  OpKind
	Space SpaceID
	Index int32
}

// String formats the operation as kind@space[index], resolving the space
// label through the registry (not a hot-path method).
func (o Op) String() string {
	return fmt.Sprintf("%s@%s[%d]", o.Kind, SpaceLabel(o.Space), o.Index)
}

// Gate mediates scheduling in simulated mode. Await blocks until the
// scheduler grants the process its next step and reports false if the
// process has been crashed by the adversary instead.
type Gate interface {
	Await(p *Proc, op Op) bool
}

// Crash is the panic value used to unwind a process that the adversary
// crashed mid-algorithm. It never escapes the runners in package sched.
type Crash struct{ PID int }

// StepLimit is the panic value used to unwind a process that exceeded its
// per-process step budget. It exists as a safety net so that a buggy
// non-terminating algorithm fails loudly instead of hanging the simulator.
type StepLimit struct {
	PID   int
	Limit int64
}

// Proc is the execution context of one process. All shared-memory
// substrates take a *Proc on every operation so that steps are counted and,
// in simulated mode, scheduled.
type Proc struct {
	id    int
	rng   *prng.Rand
	gate  Gate
	steps int64
	limit int64 // 0 means unlimited
	// lostClaim is set when the process's last word-probe acquire lost a
	// claim; see LostClaim.
	lostClaim bool
}

// NewProc returns a process context. gate may be nil (native mode).
// limit, if positive, bounds the number of steps the process may take
// before it is unwound with a StepLimit panic.
func NewProc(id int, rng *prng.Rand, gate Gate, limit int64) *Proc {
	p := new(Proc)
	p.Init(id, rng, gate, limit)
	return p
}

// Init resets p in place: the allocation-free equivalent of NewProc for
// runners that batch-allocate one contexts slice per run. It clears the
// lost-claim bit with everything else.
func (p *Proc) Init(id int, rng *prng.Rand, gate Gate, limit int64) {
	*p = Proc{id: id, rng: rng, gate: gate, limit: limit}
}

// ID returns the process identifier (its original name, in renaming terms).
func (p *Proc) ID() int { return p.id }

// Rand returns the process's private randomness. In the adaptive-adversary
// model the adversary may observe these coins; concretely it observes every
// operation target, which embodies them.
func (p *Proc) Rand() *prng.Rand { return p.rng }

// Steps returns the number of shared-memory accesses performed so far.
func (p *Proc) Steps() int64 { return p.steps }

// LostClaim reports whether p's last word-probe acquire lost a word claim:
// a claim that came back empty, or one an elastic arena bounced off a
// draining level. While it is clear, word probes take each level's lowest
// open word (first fit); once set, they draw from the ProbeWord window,
// which spreads claimants that contend. The bit is process-local memory,
// so reading or writing it is no shared-memory step.
func (p *Proc) LostClaim() bool { return p.lostClaim }

// SetLostClaim records whether the word-probe acquire in progress has lost
// a claim. Probe loops clear it on entry and set it on a loss, so it stays
// set after the call only if the call lost a claim.
func (p *Proc) SetLostClaim(lost bool) { p.lostClaim = lost }

// Step accounts for (and, in simulated mode, schedules) one shared-memory
// access. It must be called by a substrate immediately before executing the
// access. It panics with Crash if the adversary crashes the process and
// with StepLimit if the step budget is exhausted; both panics are recovered
// by the runners in package sched.
func (p *Proc) Step(op Op) {
	p.steps++
	if p.limit > 0 && p.steps > p.limit {
		panic(StepLimit{PID: p.id, Limit: p.limit})
	}
	if p.gate != nil {
		if !p.gate.Await(p, op) {
			panic(Crash{PID: p.id})
		}
	}
}

// Probeable lets an adaptive adversary inspect, without spending process
// steps, whether the addressed TAS object is already set. Structures
// register themselves with the simulator under their space label.
type Probeable interface {
	// Probe reports whether the TAS object at index i is currently set.
	Probe(i int) bool
}

// ClaimSpace is the abstract array of TAS registers holding names that the
// loose-renaming algorithms of §IV operate on. Implementations include the
// hardware NameSpace below and the read/write-register construction in
// package tas.
type ClaimSpace interface {
	// Size returns the number of names in the space.
	Size() int
	// TryClaim performs a test-and-set on name i on behalf of p and
	// reports whether p won the name. It costs at least one step.
	TryClaim(p *Proc, i int) bool
	// Claimed reads whether name i is already taken. It costs one step.
	Claimed(p *Proc, i int) bool
	// CountClaimed returns the number of taken names. It is a diagnostic
	// for tests and metrics, not a process step.
	CountClaimed() int
}

// LabeledProbeable is a probeable structure that knows the operation-space
// label under which its operations appear, so runners can register it for
// adaptive adversaries automatically.
type LabeledProbeable interface {
	Probeable
	Label() string
}

// wordsPerLine is the padded-layout stride: one occupied 8-byte word per
// 64-byte cache line, so concurrent CAS traffic on neighbouring words never
// false-shares a line in native mode.
const wordsPerLine = 8

// NameSpace is a hardware test-and-set name space: one single-writer TAS
// register per name, as assumed by the model of §IV ("registers ... on
// which they can perform TAS operations implemented in hardware"). A
// TryClaim or Claimed costs exactly one step.
//
// Storage is a word-packed bitmap: 64 names per atomic.Uint64, claimed by
// CAS on the containing word and counted with popcount. The packed layout
// (NewNameSpace) spends one bit per name — 8x less memory than the earlier
// byte-per-name layout — and is the right choice for simulated runs, where
// exactly one operation is in flight at a time. For native runs on real
// cores, NewNameSpacePadded spreads the words one per cache line to avoid
// false sharing between adjacent names.
//
// The bitmap is resident on first claim: construction allocates only the
// saturation hints, and the first claim-side write (a TryClaim, a word or
// range claim, a seize) installs the words. Reads never allocate: Claimed,
// Probe, CountClaimed and the hints see a never-claimed space as all free,
// so a level ladder pays bitmap memory only for the levels its holders
// reach. Backed spaces are resident from construction.
type NameSpace struct {
	label  string
	id     SpaceID
	size   int
	stride int // slots between occupied words: 1 packed, wordsPerLine padded
	// words is the bitmap, nil until the first claim-side write installs it
	// (see resident).
	words atomic.Pointer[[]atomic.Uint64]
	// sat is the word-saturation summary (one bit per bitmap word, set when
	// a word-granular claim observed the word full or filled it, cleared by
	// releases).
	// It is a probe-redirection hint, never a correctness input; see claim.go.
	sat *HintBits
	// stamps, when attached, is the per-name lease-stamp array of the
	// crash-recovery layer; stampBase offsets this space's local names into
	// it (arenas share one stamp array across several spaces). See lease.go
	// and the Stamped claim variants in claim.go.
	stamps    *Stamps
	stampBase int
}

var _ ClaimSpace = (*NameSpace)(nil)
var _ Probeable = (*NameSpace)(nil)
var _ LabeledProbeable = (*NameSpace)(nil)

// NewNameSpace returns a packed name space of m names, all free: 64 names
// per word. The label identifies the space in operation descriptors and
// traces; it is interned once, here.
func NewNameSpace(label string, m int) *NameSpace {
	return newNameSpace(label, m, 1)
}

// NewNameSpacePadded returns a name space of m names laid out one word per
// cache line, for native-mode runs where concurrent processes would
// otherwise false-share bitmap words. Semantics are identical to
// NewNameSpace.
func NewNameSpacePadded(label string, m int) *NameSpace {
	return newNameSpace(label, m, wordsPerLine)
}

func newNameSpace(label string, m, stride int) *NameSpace {
	if m < 0 {
		panic("shm: negative name space size")
	}
	return &NameSpace{
		label:  label,
		id:     InternSpace(label),
		size:   m,
		stride: stride,
		sat:    NewHintBits((m + 63) / 64),
	}
}

// NewNameSpaceBacked returns a packed name space of m names on externally
// owned word storage (e.g. a region of an mmap'd file). The backing slice
// is used in place, bits and all — opening an existing file preserves its
// claims — so it must hold at least ⌈m/64⌉ words, and the space is
// resident from construction. Saturation hints are process-local (rebuilt
// lazily by claims), never persisted.
func NewNameSpaceBacked(label string, m int, words []atomic.Uint64) *NameSpace {
	s := newNameSpace(label, m, 1)
	if len(words) < s.Words() {
		panic(fmt.Sprintf("shm: backing of %d words cannot hold %d names", len(words), m))
	}
	words = words[:s.Words()]
	s.words.Store(&words)
	return s
}

// AttachStamps wires the crash-recovery lease-stamp array to this space:
// the space's local name i stamps at st[base+i]. Required before any
// Stamped claim variant; a nil st detaches.
func (s *NameSpace) AttachStamps(st *Stamps, base int) {
	if st != nil && base+s.size > st.Size() {
		panic(fmt.Sprintf("shm: stamp array of %d cannot cover names [%d, %d)", st.Size(), base, base+s.size))
	}
	s.stamps = st
	s.stampBase = base
}

// Stamps returns the attached lease-stamp array and this space's base
// offset into it (nil when the space is unstamped).
func (s *NameSpace) Stamps() (*Stamps, int) { return s.stamps, s.stampBase }

// Label returns the space's label.
func (s *NameSpace) Label() string { return s.label }

// ID returns the space's interned operation-space ID.
func (s *NameSpace) ID() SpaceID { return s.id }

// Size returns the number of names.
func (s *NameSpace) Size() int { return s.size }

// bit returns the bitmap slot of the word holding name i and i's mask
// within that word.
func (s *NameSpace) bit(i int) (int, uint64) {
	if uint(i) >= uint(s.size) {
		panic(fmt.Sprintf("shm: name %d outside space %q of %d", i, s.label, s.size))
	}
	return (i >> 6) * s.stride, uint64(1) << (uint(i) & 63)
}

// bitmap returns the bitmap words, or nil while no claim has written the
// space. Read paths use it, so they never allocate.
func (s *NameSpace) bitmap() []atomic.Uint64 {
	if ws := s.words.Load(); ws != nil {
		return *ws
	}
	return nil
}

// resident returns the bitmap words, installing them on the first
// claim-side write.
func (s *NameSpace) resident() []atomic.Uint64 {
	if ws := s.words.Load(); ws != nil {
		return *ws
	}
	return s.install()
}

// install allocates the bitmap and publishes it with one CAS. First claims
// racing here each allocate, but one CAS wins and the losers adopt its
// words before touching a bit, so no claim lands in a discarded bitmap.
func (s *NameSpace) install() []atomic.Uint64 {
	fresh := make([]atomic.Uint64, s.Words()*s.stride)
	if s.words.CompareAndSwap(nil, &fresh) {
		return fresh
	}
	return *s.words.Load()
}

// load reads bitmap slot at; an absent bitmap reads as all free.
func (s *NameSpace) load(at int) uint64 {
	if ws := s.bitmap(); ws != nil {
		return ws[at].Load()
	}
	return 0
}

// clear drops mask from bitmap slot at; an absent bitmap has no bit to
// clear.
func (s *NameSpace) clear(at int, mask uint64) {
	if ws := s.bitmap(); ws != nil {
		ws[at].And(^mask)
	}
}

// TryClaim test-and-sets name i: CAS on the containing bitmap word. One
// step. Losing the CAS to a concurrent claim of a *different* name in the
// same word retries; losing bit i itself returns false.
func (s *NameSpace) TryClaim(p *Proc, i int) bool {
	at, mask := s.bit(i)
	p.Step(Op{Kind: OpTAS, Space: s.id, Index: int32(i)})
	w := &s.resident()[at]
	for {
		cur := w.Load()
		if cur&mask != 0 {
			return false
		}
		if w.CompareAndSwap(cur, cur|mask) {
			return true
		}
	}
}

// Claimed reads whether name i is taken. One step.
func (s *NameSpace) Claimed(p *Proc, i int) bool {
	at, mask := s.bit(i)
	p.Step(Op{Kind: OpRead, Space: s.id, Index: int32(i)})
	return s.load(at)&mask != 0
}

// Free clears name i — the release half of long-lived renaming. One step.
// Only the current holder of the name may call it; releasing a free name is
// a no-op (the atomic clear of an unset bit changes nothing). The cleared
// name is immediately reacquirable by any process.
func (s *NameSpace) Free(p *Proc, i int) {
	at, mask := s.bit(i)
	p.Step(Op{Kind: OpClear, Space: s.id, Index: int32(i)})
	s.clear(at, mask)
	s.sat.Clear(i >> 6)
}

// Probe reports whether name i is taken without spending a process step.
// It serves the adversary (Probeable) and post-run verification.
func (s *NameSpace) Probe(i int) bool {
	at, mask := s.bit(i)
	return s.load(at)&mask != 0
}

// CountClaimed returns the number of taken names: one popcount per bitmap
// word. Not a process step; used by metrics and tests after (or between)
// runs.
func (s *NameSpace) CountClaimed() int {
	ws := s.bitmap()
	c := 0
	for i := 0; i < len(ws); i += s.stride {
		c += bits.OnesCount64(ws[i].Load())
	}
	return c
}

// Reset frees every name, keeping any installed bitmap. Only safe when no
// processes are running.
func (s *NameSpace) Reset() {
	ws := s.bitmap()
	for i := 0; i < len(ws); i += s.stride {
		ws[i].Store(0)
	}
	s.sat.Reset()
}
