package openloop

import (
	"errors"
	"sync"
	"sync/atomic"

	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// ErrFull is the arena-full rejection of a wrapped internal arena,
// playing the role ErrArenaFull plays for the public surface.
var ErrFull = errors.New("openloop: arena full")

// WrapArena adapts an internal longlived.Arena to Target, pooling procs
// exactly as the public Arena does, so harness experiments drive internal
// backends as a public Arena's caller would.
func WrapArena(a longlived.Arena, seed uint64) Target {
	return &arenaTarget{a: a, seed: seed}
}

type arenaTarget struct {
	a      longlived.Arena
	seed   uint64
	nextID atomic.Int64
	procs  sync.Pool
}

func (t *arenaTarget) proc() *shm.Proc {
	if p, ok := t.procs.Get().(*shm.Proc); ok {
		return p
	}
	id := int(t.nextID.Add(1) - 1)
	return shm.NewProc(id, prng.NewStream(t.seed, id), nil, 0)
}

// Acquire implements Target.
func (t *arenaTarget) Acquire() (int, error) {
	p := t.proc()
	n := t.a.Acquire(p)
	t.procs.Put(p)
	if n < 0 {
		return -1, ErrFull
	}
	return n, nil
}

// Release implements Target.
func (t *arenaTarget) Release(n int) error {
	p := t.proc()
	t.a.Release(p, n)
	t.procs.Put(p)
	return nil
}
