//go:build unix

package persist

import (
	"fmt"
	"os"

	"shmrename/internal/registry"
)

func init() {
	registry.Register(registry.Backend{
		Name: "persist",
		// External: each instance materializes an mmap-backed namespace
		// file (created under the temp directory and unlinked immediately —
		// the mapping keeps it alive, nothing is left behind). The file's
		// claims are always lease-stamped, so Leasable holds even without
		// Config.Epochs; the wall clock default makes it non-deterministic.
		Caps: registry.Caps{
			Batch:       true,
			Leasable:    true,
			External:    true,
			SelfHealing: true,
		},
		New: func(cfg registry.Config) registry.Arena {
			f, err := os.CreateTemp("", "shmrename-registry-*.arena")
			if err != nil {
				panic(fmt.Sprintf("persist: registry temp file: %v", err))
			}
			path := f.Name()
			if err := f.Close(); err != nil {
				panic(fmt.Sprintf("persist: registry temp file: %v", err))
			}
			a, err := Open(path, Options{
				Names:     cfg.Capacity,
				Epochs:    cfg.Epochs,
				Holder:    cfg.Holder,
				Alive:     cfg.Alive,
				MaxPasses: cfg.MaxPasses,
				Label:     cfg.Label,
			})
			os.Remove(path)
			if err != nil {
				panic(fmt.Sprintf("persist: registry open: %v", err))
			}
			return a
		},
	})
}
