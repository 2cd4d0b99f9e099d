// Package all links every in-tree arena backend into the importing binary
// so its registrations run. Import it for effect:
//
//	import _ "shmrename/internal/registry/all"
//
// The registry package itself stays a leaf (backends import it to call
// Register); this package closes the loop for consumers — the conformance
// suite, the experiment harness, the public shmrename API — that want
// "every backend" without naming them. A new backend joins every consumer
// by adding one blank import here. Six backends register today, one per
// arena shape a public caller can build: the level, elastic and τ arenas,
// the sharded frontend, the lease cache over it, and the mmap-backed file
// arena behind OpenArena.
package all

import (
	_ "shmrename/internal/leasecache" // registers lease-cached
	_ "shmrename/internal/longlived"  // registers level-array, elastic-level, tau-longlived
	_ "shmrename/internal/persist"    // registers persist
	_ "shmrename/internal/sharded"    // registers sharded
)
