//go:build unix

// Package persist implements the mmap-backed cross-process renaming
// namespace: the shared-memory model taken literally. The claim bitmap and
// the lease-stamp array live in a file mapped MAP_SHARED by every
// participating OS process, so the same word-granular TAS/CAS protocol
// that coordinates goroutines in-process coordinates unrelated processes
// through the page cache — and, because the state survives its holders,
// the recovery sweep (package recovery) can return a SIGKILLed process's
// names to the pool from any surviving process.
//
// # File layout
//
// Everything is 8-byte little-host-endian words, mmap-aligned:
//
//	word 0              magic "shmrenam"
//	word 1              layout version
//	word 2              name count m
//	word 3              attach counter (diagnostic; see Dirty)
//	words 4..7          reserved, zero
//	words 8..8+B-1      claim bitmap, B = ⌈m/64⌉ words
//	words 8+B..8+B+m-1  lease stamps, one word per name
//
// The superblock is validated on every open: a magic or version mismatch,
// or a geometry that disagrees with the file's size, is an error — never a
// silent reinterpretation of someone else's bits. Open serializes
// create-or-validate under an exclusive flock (dropped before returning),
// so two processes racing to create the file cannot both lay out a
// superblock — the loser attaches to the winner's geometry or errors out.
// Creation still writes the geometry first and the magic word last, so a
// file left behind by a creator that crashed mid-layout has no magic and
// every later open rejects it with an error (no automatic retry or
// repair — delete the file to recreate it).
//
// # Identity and liveness
//
// Each Arena handle claims under one holder identity, its process ID, and
// each OS process is the recovery unit: leases are stamped with the PID,
// heartbeats renew all of the process's stamps, and the default liveness
// oracle is kill(pid, 0) — the sweep reclaims a name only when its
// holder's lease is TTL-stale and the PID no longer resolves to a live
// process. PIDs fit the 24-bit holder field on every mainstream kernel
// (Linux caps pid_max at 2^22).
//
// The arena is flat — one word-scanned bitmap, names in [0, m) — rather
// than a level ladder: cross-process churn is dominated by mmap coherence,
// not probe counts, and a flat map keeps the on-disk geometry trivially
// checkable. In-process backends remain the place where the paper's
// structures earn their keep.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/recovery"
	"shmrename/internal/shm"
)

const (
	// fileMagic spells "shmrenam" in little-endian byte order.
	fileMagic = 0x6d616e65726d6873
	// fileVersion 2 added the superblock checksum word (hCRC); version-1
	// files predate it and are rejected rather than trusted unchecked.
	fileVersion = 2
	hdrWords    = 8

	hMagic   = 0
	hVersion = 1
	hNames   = 2
	hAttach  = 3
	// hCRC holds the CRC32C (Castagnoli) of the immutable superblock words
	// (magic, version, name count) at their final values. It is written
	// before the magic during creation, so a validated magic implies the
	// checksum is present: a mismatch at open means the header bytes were
	// torn or flipped after layout, and the geometry cannot be trusted.
	hCRC = 4

	// maxNames bounds the advertised name count of an attached file: far
	// above any real namespace, low enough that fileSize cannot overflow
	// and a corrupt count cannot demand a terabyte mapping.
	maxNames = 1 << 31
)

// superCRC computes the superblock checksum: CRC32C over the three
// immutable header words at their final values.
func superCRC(magic, version, names uint64) uint64 {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], magic)
	binary.LittleEndian.PutUint64(b[8:], version)
	binary.LittleEndian.PutUint64(b[16:], names)
	return uint64(crc32.Checksum(b[:], crc32.MakeTable(crc32.Castagnoli)))
}

// pidAlive is the default liveness oracle: kill(pid, 0). EPERM means the
// process exists but belongs to someone else — alive.
func pidAlive(holder uint64) bool {
	if holder == 0 || holder > uint64(1)<<31 {
		return false
	}
	err := syscall.Kill(int(holder), 0)
	return err == nil || err == syscall.EPERM
}

// Arena is one process's handle on an mmap-backed namespace. It implements
// longlived.Recoverable; every claim carries the handle's holder identity,
// so all of a process's names are recovered together when it dies. Methods
// are safe for concurrent use by distinct procs, in this process and in
// any other process mapping the same file.
type Arena struct {
	f       *os.File
	data    []byte
	hdr     []atomic.Uint64
	ns      *shm.NameSpace
	stamps  *shm.Stamps
	sweeper *recovery.Sweeper
	opt     Options
	m       int
	dirty   bool
	closed  atomic.Bool
}

var _ longlived.Recoverable = (*Arena)(nil)

func fileSize(m int) int64 {
	return 8 * int64(hdrWords+(m+63)/64+m)
}

// Open creates or attaches to the namespace file at path and runs one
// recovery sweep over it before returning, so names orphaned by a crashed
// previous holder are back in the pool by the time the caller acquires.
func Open(path string, opt Options) (*Arena, error) {
	opt.fill()
	if opt.Holder > shm.MaxHolder {
		return nil, fmt.Errorf("persist: holder %d exceeds %d", opt.Holder, uint64(shm.MaxHolder))
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open %s: %w", path, err)
	}
	// Create-or-validate runs under an exclusive flock: two openers that
	// both observed an empty file would both lay out a superblock, and with
	// disagreeing Options.Names the second Truncate would shrink the file
	// under the first opener's mapping (SIGBUS on a later access). The lock
	// is released before returning (error paths drop it via f.Close), so it
	// never outlives Open.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: lock %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat %s: %w", path, err)
	}
	fresh := st.Size() == 0
	m := opt.Names
	if fresh {
		if m <= 0 {
			f.Close()
			return nil, fmt.Errorf("persist: creating %s requires Options.Names", path)
		}
		if m > maxNames {
			f.Close()
			return nil, fmt.Errorf("persist: %d names exceeds the namespace bound %d", m, int64(maxNames))
		}
		if err := f.Truncate(fileSize(m)); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: size %s: %w", path, err)
		}
	}
	size := fileSize(m)
	if !fresh {
		// Validate before mapping: a file shorter than its own superblock
		// (truncated by an operator, a quota, or a crash during an external
		// copy) must be rejected here with a descriptive error, not later
		// with a SIGBUS when a mapped page past EOF is first touched.
		if st.Size() < hdrWords*8 {
			f.Close()
			return nil, fmt.Errorf("persist: %s is %d bytes, too short for a namespace superblock (%d); the file is truncated or not a renaming namespace",
				path, st.Size(), hdrWords*8)
		}
		// Geometry comes from the file; read the superblock through a small
		// map first when the caller did not pin m.
		hdrMap, err := syscall.Mmap(int(f.Fd()), 0, hdrWords*8, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: map header of %s: %w", path, err)
		}
		hw := wordsOf(hdrMap)
		magic, ver := hw[hMagic].Load(), hw[hVersion].Load()
		names, crc := hw[hNames].Load(), hw[hCRC].Load()
		syscall.Munmap(hdrMap)
		if magic != fileMagic {
			f.Close()
			return nil, fmt.Errorf("persist: %s is not a renaming namespace (magic %#x)", path, magic)
		}
		if ver != fileVersion {
			f.Close()
			return nil, fmt.Errorf("persist: %s layout version %d, want %d", path, ver, fileVersion)
		}
		if want := superCRC(magic, ver, names); crc != want {
			f.Close()
			return nil, fmt.Errorf("persist: %s superblock checksum %#x, want %#x: header torn or corrupted", path, crc, want)
		}
		if names == 0 || names > maxNames {
			f.Close()
			return nil, fmt.Errorf("persist: %s advertises %d names, outside [1, %d]", path, names, int64(maxNames))
		}
		fm := int(names)
		if m != 0 && m != fm {
			f.Close()
			return nil, fmt.Errorf("persist: %s holds %d names, caller wants %d", path, fm, m)
		}
		m = fm
		size = fileSize(m)
		if st.Size() != size {
			f.Close()
			return nil, fmt.Errorf("persist: %s is %d bytes, geometry needs %d", path, st.Size(), size)
		}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: map %s: %w", path, err)
	}
	words := wordsOf(data)
	hdr := words[:hdrWords]
	if fresh {
		// Geometry before magic: if the creator crashes mid-layout the file
		// has no magic, and every later open (serialized behind the flock)
		// rejects it with an error rather than mapping half-written state.
		// The checksum — computed over the final header values — goes in
		// just before the magic, so a validated magic implies a present
		// checksum and the two must agree.
		hdr[hVersion].Store(fileVersion)
		hdr[hNames].Store(uint64(m))
		hdr[hCRC].Store(superCRC(fileMagic, fileVersion, uint64(m)))
		hdr[hMagic].Store(fileMagic)
	}
	// Layout settled; later openers only validate. Everything past this
	// point is the ordinary lock-free shared-word protocol.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_UN); err != nil {
		syscall.Munmap(data)
		f.Close()
		return nil, fmt.Errorf("persist: unlock %s: %w", path, err)
	}
	bw := (m + 63) / 64
	a := &Arena{
		f:    f,
		data: data,
		hdr:  hdr,
		opt:  opt,
		m:    m,
		// A nonzero attach count at open means some previous holder never
		// closed cleanly (or is still attached) — the sweep handles both.
		dirty: hdr[hAttach].Add(1) != 1,
	}
	a.ns = shm.NewNameSpaceBacked(opt.Label+":names", m, words[hdrWords:hdrWords+bw])
	a.stamps = shm.NewStampsBacked(opt.Label+":lease", m, words[hdrWords+bw:hdrWords+bw+m])
	a.ns.AttachStamps(a.stamps, 0)
	a.sweeper = recovery.NewSweeper(a, recovery.Config{TTL: opt.TTL, Epochs: opt.Epochs, Alive: opt.Alive})
	// On-open sweep: names orphaned by crashed previous holders are back in
	// the pool before the caller's first acquire.
	a.Sweep(shm.NewProc(int(opt.Holder), prng.NewStream(opt.Holder, 0), nil, 0))
	return a, nil
}

// wordsOf reinterprets an mmap'd (hence word-aligned) byte slice as atomic
// words.
func wordsOf(b []byte) []atomic.Uint64 {
	return unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// Label implements longlived.Arena.
func (a *Arena) Label() string {
	return fmt.Sprintf("persist(m=%d,holder=%d)", a.m, a.opt.Holder)
}

// Capacity implements longlived.Arena: the flat namespace guarantees m
// concurrent holders.
func (a *Arena) Capacity() int { return a.m }

// NameBound implements longlived.Arena.
func (a *Arena) NameBound() int { return a.m }

// Holder returns the handle's holder identity.
func (a *Arena) Holder() uint64 { return a.opt.Holder }

// Dirty reports whether the file recorded other attachments at open time:
// a crashed previous holder, or just concurrent ones. Diagnostic only —
// recovery never trusts it, the sweep inspects every stamp regardless.
func (a *Arena) Dirty() bool { return a.dirty }

func (a *Arena) stamp() uint64 {
	return shm.PackStamp(a.opt.Holder, a.opt.Epochs.Now())
}

// Acquire implements longlived.Arena: a word-granular scan of the shared
// bitmap from a random start word, stamping every claim with the handle's
// holder and the current epoch.
func (a *Arena) Acquire(p *shm.Proc) int {
	stamp := a.stamp()
	words := a.ns.Words()
	start := p.Rand().Intn(words)
	for pass := 0; pass < a.opt.MaxPasses; pass++ {
		for off := 0; off < words; off++ {
			if n := a.ns.ClaimFirstFreeStamped(p, (start+off)%words, stamp); n >= 0 {
				return n
			}
		}
	}
	return -1
}

// AcquireN implements longlived.Arena: word-granular batch claims.
func (a *Arena) AcquireN(p *shm.Proc, k int, out []int) []int {
	stamp := a.stamp()
	words := a.ns.Words()
	start := p.Rand().Intn(words)
	for pass := 0; k > 0 && pass < a.opt.MaxPasses; pass++ {
		for off := 0; k > 0 && off < words; off++ {
			w := (start + off) % words
			won := a.ns.ClaimUpToStamped(p, w, k, stamp)
			for won != 0 {
				out = append(out, w<<6+bits.TrailingZeros64(won))
				won &= won - 1
				k--
			}
		}
	}
	return out
}

// Release implements longlived.Arena. A release that finds its lease
// already reclaimed (this handle was presumed dead) leaves the name alone;
// the reclaim owns it now.
func (a *Arena) Release(p *shm.Proc, name int) {
	if name < 0 || name >= a.m {
		panic(fmt.Sprintf("persist: name %d outside namespace %d", name, a.m))
	}
	a.ns.FreeStamped(p, name, a.opt.Holder)
}

// ReleaseN implements longlived.Arena.
func (a *Arena) ReleaseN(p *shm.Proc, names []int) {
	for _, n := range names {
		a.Release(p, n)
	}
}

// Touch implements longlived.Arena.
func (a *Arena) Touch(p *shm.Proc, name int) { a.ns.Claimed(p, name) }

// IsHeld implements longlived.Arena.
func (a *Arena) IsHeld(name int) bool { return a.ns.Probe(name) }

// Held implements longlived.Arena.
func (a *Arena) Held() int { return a.ns.CountClaimed() }

// HeldBy counts the names currently leased to the given holder.
func (a *Arena) HeldBy(holder uint64) int { return a.stamps.CountHolder(holder) }

// ResidentBytes implements registry.Footprint: the mapped bitmap and stamp
// words, all resident from Open, plus the process-local saturation hints
// and stamp page table.
func (a *Arena) ResidentBytes() int64 {
	return int64(a.ns.FootprintBytes()) + a.stamps.ResidentBytes()
}

// Probeables implements longlived.Arena.
func (a *Arena) Probeables() map[string]shm.Probeable {
	return map[string]shm.Probeable{a.ns.Label(): a.ns}
}

// Clock implements longlived.Arena.
func (a *Arena) Clock() func() { return nil }

// LeaseDomains implements longlived.Recoverable: the whole namespace is
// one stamped domain.
func (a *Arena) LeaseDomains() []longlived.LeaseDomain {
	return []longlived.LeaseDomain{{
		Base:    0,
		Stamps:  a.stamps,
		IsHeld:  a.ns.Probe,
		Reclaim: func(p *shm.Proc, i int) { a.ns.Free(p, i) },
		Seize:   func(p *shm.Proc, i int) bool { return a.ns.TryClaim(p, i) },
	}}
}

// Heartbeat renews every lease this handle holds to the current epoch,
// returning the renewal count. Call it at least once per TTL.
func (a *Arena) Heartbeat(p *shm.Proc) int {
	return longlived.HeartbeatHolder(a, p, a.opt.Holder, a.opt.Epochs.Now())
}

// Sweep runs one recovery pass over the namespace: TTL-stale leases whose
// holders fail the liveness oracle are reclaimed. Any process attached to
// the file may sweep; concurrent sweeps are safe.
func (a *Arena) Sweep(p *shm.Proc) recovery.Result { return a.sweeper.Sweep(p) }

// Sweeper exposes the handle's sweeper (background reaping, counters).
func (a *Arena) Sweeper() *recovery.Sweeper { return a.sweeper }

// Close detaches from the file. The names this handle still holds stay
// claimed — their leases simply stop being renewed, and any surviving
// process's sweep reclaims them after the TTL; call Release first for an
// immediate return.
func (a *Arena) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	a.hdr[hAttach].Add(^uint64(0))
	if err := syscall.Munmap(a.data); err != nil {
		a.f.Close()
		return fmt.Errorf("persist: unmap: %w", err)
	}
	return a.f.Close()
}
