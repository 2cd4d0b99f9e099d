//go:build unix

package persist

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

func testProc(id int) *shm.Proc {
	return shm.NewProc(id, prng.NewStream(42, id), nil, 0)
}

func openT(t *testing.T, path string, opt Options) *Arena {
	t.Helper()
	a, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestPersistCreateAttachReclaim covers the single-process lifecycle: a
// fresh file, claims that survive reopening, and a foreign handle
// reclaiming a dead holder's stale leases.
func TestPersistCreateAttachReclaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ns")
	ep := shm.NewCounterEpochs(1)
	dead := func(uint64) bool { return false }
	a := openT(t, path, Options{Names: 128, TTL: 5, Epochs: ep, Holder: 100, Alive: dead})
	p := testProc(1)
	names := a.AcquireN(p, 10, nil)
	if len(names) != 10 {
		t.Fatalf("acquired %d", len(names))
	}
	if a.HeldBy(100) != 10 {
		t.Fatalf("holder 100 owns %d stamps", a.HeldBy(100))
	}
	a.Close()

	// Holder 100 "crashed". A new handle under another identity must see
	// the claims persisted, then reclaim them once stale.
	ep.Advance(10)
	b := openT(t, path, Options{TTL: 50, Epochs: ep, Holder: 200, Alive: dead})
	if b.NameBound() != 128 {
		t.Fatalf("reopened bound %d", b.NameBound())
	}
	if b.Held() != 10 {
		t.Fatalf("reopen sees %d held", b.Held())
	}
	// TTL 50: not yet stale, the open-time sweep must have spared them.
	ep.Advance(100)
	res := b.Sweep(testProc(2))
	if res.Reclaimed != 10 {
		t.Fatalf("sweep %+v, want 10 reclaims", res)
	}
	if b.Held() != 0 || b.HeldBy(100) != 0 {
		t.Fatal("dead holder's names not fully recovered")
	}
	got := b.AcquireN(testProc(2), 128, nil)
	if len(got) != 128 {
		t.Fatalf("pool not whole: %d of 128", len(got))
	}
}

// TestPersistFullyResident: the mmap-backed namespace is resident from
// Open (its bitmap and every stamp page live in the mapping), so it
// reports its full footprint before any claim.
func TestPersistFullyResident(t *testing.T) {
	a := openT(t, filepath.Join(t.TempDir(), "ns"), Options{Names: 130, Holder: 100})
	// 3 bitmap words and 1 hint word; 130 stamp words and 3 page pointers.
	if got, want := a.ResidentBytes(), int64(8*(3+1+130+3)); got != want {
		t.Fatalf("fresh namespace reports %d resident bytes, want %d", got, want)
	}
}

// TestPersistOpenValidation: corrupt or mismatched files are refused, never
// reinterpreted.
func TestPersistOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "absent"), Options{}); err == nil {
		t.Fatal("creating without Names must fail")
	}

	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(garbage, Options{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("garbage magic: %v", err)
	}

	good := filepath.Join(dir, "good")
	a := openT(t, good, Options{Names: 64, Holder: 100})
	a.Close()
	if _, err := Open(good, Options{Names: 128, Holder: 100}); err == nil {
		t.Fatal("geometry mismatch must fail")
	}
	if err := os.Truncate(good, fileSize(64)-8); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(good, Options{Holder: 100}); err == nil {
		t.Fatal("truncated file must fail")
	}
}

// TestPersistCreationRace: two openers racing to create the same file with
// disagreeing geometries must serialize behind the creation flock — exactly
// one lays out the superblock, the loser gets a geometry-mismatch error,
// and the file ends up sized for the winner (never shrunk under a live
// mapping).
func TestPersistCreationRace(t *testing.T) {
	sizes := []int{64, 128}
	for trial := 0; trial < 8; trial++ {
		path := filepath.Join(t.TempDir(), "ns")
		arenas := make([]*Arena, len(sizes))
		errs := make([]error, len(sizes))
		var wg sync.WaitGroup
		for i := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				arenas[i], errs[i] = Open(path, Options{Names: sizes[i], Holder: uint64(100 + i)})
			}()
		}
		wg.Wait()
		won := -1
		for i := range sizes {
			if errs[i] != nil {
				continue
			}
			if won >= 0 {
				t.Fatalf("trial %d: both geometries accepted (%d and %d names)", trial, sizes[won], sizes[i])
			}
			won = i
		}
		if won < 0 {
			t.Fatalf("trial %d: both opens failed: %v / %v", trial, errs[0], errs[1])
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != fileSize(sizes[won]) {
			t.Fatalf("trial %d: file is %d bytes, winner geometry needs %d", trial, st.Size(), fileSize(sizes[won]))
		}
		// The winner's mapping must be fully usable — under the old race a
		// losing creator could have shrunk the file beneath it.
		a := arenas[won]
		p := testProc(won)
		if n := a.Acquire(p); n < 0 {
			t.Fatalf("trial %d: winner cannot acquire", trial)
		} else {
			a.Release(p, n)
		}
		a.Close()
	}
}

// TestPersistDirtyAndHeartbeat: the attach counter flags concurrent or
// crashed holders, and a heartbeating holder survives a hostile sweep.
func TestPersistDirtyAndHeartbeat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ns")
	ep := shm.NewCounterEpochs(1)
	dead := func(uint64) bool { return false }
	a := openT(t, path, Options{Names: 64, TTL: 5, Epochs: ep, Holder: 100, Alive: dead})
	if a.Dirty() {
		t.Fatal("first open cannot be dirty")
	}
	b := openT(t, path, Options{TTL: 5, Epochs: ep, Holder: 200, Alive: dead})
	if !b.Dirty() {
		t.Fatal("second concurrent open must report dirty")
	}

	pa := testProc(1)
	names := a.AcquireN(pa, 6, nil)
	ep.Advance(100)
	if got := a.Heartbeat(pa); got != 6 {
		t.Fatalf("heartbeat renewed %d", got)
	}
	if res := b.Sweep(testProc(2)); res.Reclaimed != 0 {
		t.Fatalf("sweep stole a heartbeating holder's names: %+v", res)
	}
	for _, n := range names {
		if !a.IsHeld(n) {
			t.Fatalf("name %d lost", n)
		}
	}
	// Silence drops: once the heartbeats stop, the same sweep reclaims.
	ep.Advance(100)
	if res := b.Sweep(testProc(2)); res.Reclaimed != 6 {
		t.Fatalf("post-silence sweep %+v", res)
	}
}

// TestPersistChildHelper is not a test: it is the body re-executed as a
// child OS process by TestPersistCrossProcessKill. It attaches to the
// parent's namespace file, acquires names under its real PID, reports them
// on stdout, and holds them until the parent kills it.
func TestPersistChildHelper(t *testing.T) {
	path := os.Getenv("SHMRENAME_PERSIST_PATH")
	if path == "" {
		t.Skip("re-exec helper, run by TestPersistCrossProcessKill")
	}
	k, err := strconv.Atoi(os.Getenv("SHMRENAME_PERSIST_K"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := testProc(os.Getpid())
	names := a.AcquireN(p, k, nil)
	if len(names) != k {
		t.Fatalf("child acquired %d of %d", len(names), k)
	}
	fmt.Printf("names %d", os.Getpid())
	for _, n := range names {
		fmt.Printf(" %d", n)
	}
	fmt.Println()
	fmt.Println("holding")
	os.Stdout.Sync()
	time.Sleep(60 * time.Second) // parent SIGKILLs long before this
}

type child struct {
	cmd   *exec.Cmd
	pid   int
	names []int
}

// spawnChild re-executes the test binary as a real child process running
// TestPersistChildHelper and waits until it reports its held names.
func spawnChild(t *testing.T, path string, k int) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestPersistChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SHMRENAME_PERSIST_PATH="+path,
		fmt.Sprintf("SHMRENAME_PERSIST_K=%d", k),
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, pid: cmd.Process.Pid}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "names "); ok {
			for i, f := range strings.Fields(rest) {
				v, err := strconv.Atoi(f)
				if err != nil {
					t.Fatalf("child line %q: %v", line, err)
				}
				if i == 0 {
					if v != c.pid {
						t.Fatalf("child reported pid %d, spawned %d", v, c.pid)
					}
					continue
				}
				c.names = append(c.names, v)
			}
		}
		if line == "holding" {
			return c
		}
	}
	t.Fatalf("child %d exited before holding: %v", c.pid, sc.Err())
	return nil
}

// kill SIGKILLs the child mid-hold and reaps it, so kill(pid, 0) stops
// resolving and the liveness oracle sees a dead holder.
func (c *child) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait() // reap the zombie; expected to report the kill
}

// TestPersistCrossProcessKill is the end-to-end crash-recovery test: real
// child OS processes attach to the shared file, claim names, and are
// SIGKILLed while holding them. The surviving parent's sweep must reclaim
// exactly the dead children's names — the live child's leases survive via
// the kill(pid, 0) oracle — and the recovered names must be re-grantable.
func TestPersistCrossProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes")
	}
	path := filepath.Join(t.TempDir(), "ns")
	// TTL 1ms: every lease goes stale almost immediately, so liveness is
	// decided by the kill(pid, 0) oracle — the cross-process contract.
	parent := openT(t, path, Options{Names: 256, TTL: 1})

	const perChild = 8
	victims := []*child{spawnChild(t, path, perChild), spawnChild(t, path, perChild)}
	survivor := spawnChild(t, path, perChild)
	defer survivor.kill(t)

	seen := map[int]bool{}
	for _, c := range append(append([]*child{}, victims...), survivor) {
		if len(c.names) != perChild {
			t.Fatalf("child %d reported %d names", c.pid, len(c.names))
		}
		for _, n := range c.names {
			if seen[n] {
				t.Fatalf("name %d granted twice across processes", n)
			}
			seen[n] = true
			if !parent.IsHeld(n) {
				t.Fatalf("child-held name %d not visible through parent's map", n)
			}
		}
	}

	for _, c := range victims {
		c.kill(t)
	}
	time.Sleep(5 * time.Millisecond) // let the 1ms TTL lapse

	res := parent.Sweep(testProc(0))
	if want := len(victims) * perChild; res.Reclaimed != want {
		t.Fatalf("sweep %+v, want exactly %d reclaims", res, want)
	}
	for _, c := range victims {
		for _, n := range c.names {
			if parent.IsHeld(n) {
				t.Fatalf("victim name %d still held after sweep", n)
			}
		}
	}
	for _, n := range survivor.names {
		if !parent.IsHeld(n) {
			t.Fatalf("survivor's name %d was stolen", n)
		}
	}

	// The reclaimed names must be re-grantable from this process.
	got := parent.AcquireN(testProc(1), len(victims)*perChild, nil)
	if len(got) != len(victims)*perChild {
		t.Fatalf("re-granted %d of %d reclaimed names", len(got), len(victims)*perChild)
	}
}

// TestPersistHardenedOpen covers the torn-header defenses: files shorter
// than the superblock are refused with a descriptive error before any page
// is touched, a corrupted checksum word is detected, and pre-checksum
// layout versions are rejected rather than trusted.
func TestPersistHardenedOpen(t *testing.T) {
	dir := t.TempDir()

	// A file truncated below the superblock (e.g. a crashed external copy).
	for _, n := range []int{1, 8, hdrWords*8 - 1} {
		short := filepath.Join(dir, fmt.Sprintf("short%d", n))
		if err := os.WriteFile(short, make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(short, Options{Holder: 100})
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%d-byte file: %v, want truncation error", n, err)
		}
	}

	// A torn header: flip one byte of the checksum word of a valid file.
	torn := filepath.Join(dir, "torn")
	a := openT(t, torn, Options{Names: 64, Holder: 100})
	a.Close()
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	raw[hCRC*8] ^= 0x40
	if err := os.WriteFile(torn, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(torn, Options{Holder: 100}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("torn header: %v, want checksum error", err)
	}

	// Same file with a corrupted name count: the checksum catches it before
	// the geometry check could be fooled into a bogus mapping size.
	raw[hCRC*8] ^= 0x40 // restore crc
	raw[hNames*8] = 0xff
	bogus := filepath.Join(dir, "bogus")
	if err := os.WriteFile(bogus, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bogus, Options{Holder: 100}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt name count: %v, want checksum error", err)
	}

	// A version-1 file (pre-checksum layout) is refused by version, not
	// reinterpreted.
	old := filepath.Join(dir, "old")
	raw2, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	for i := hVersion * 8; i < hVersion*8+8; i++ {
		raw2[i] = 0
	}
	raw2[hVersion*8] = 1
	if err := os.WriteFile(old, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(old, Options{Holder: 100}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-1 file: %v, want version error", err)
	}
}
