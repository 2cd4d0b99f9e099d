package leasecache

import (
	"shmrename/internal/registry"
	"shmrename/internal/sharded"
)

// cacheHolder is the lease holder a registry-built lease-cached arena
// stamps on every claim when Config.Epochs is set and Config.Holder is 0.
const cacheHolder = 1

func init() {
	registry.Register(registry.Backend{
		Name: "lease-cached",
		// Not Deterministic: slot assignment hashes proc IDs into a
		// GOMAXPROCS-sized slot array and TryLock outcomes depend on real
		// interleaving, and a cached arena may report full while parked
		// names exist in other workers' slots — so the simulated churn
		// invariants (every worker completes every cycle) do not apply.
		Caps: registry.Caps{
			Batch:       true,
			Leasable:    true,
			Sharded:     true,
			WordScan:    true,
			Cached:      true,
			SelfHealing: true,
		},
		New: func(cfg registry.Config) registry.Arena {
			// A cached block is one lease: a name leased through one slot's
			// proc may be released through another's, and a per-proc stamp
			// would make that release fail and leak the name. So the whole
			// handle stamps one holder unless the caller names its own.
			if cfg.Epochs != nil && cfg.Holder == 0 {
				cfg.Holder = cacheHolder
			}
			// The production shape ArenaConfig.LeaseBlocks wires: per-worker
			// word-block caches over the word-scan sharded frontend, which
			// honors Shards and Elastic like the "sharded" backend. The
			// stripes stay packed whatever Padded says: the cache reaches
			// them only for whole-block refills and spills.
			scfg := sharded.RegistryConfig(cfg)
			scfg.WordScan = true // a block is one bitmap word
			scfg.Padded = false
			return New(sharded.New(cfg.Capacity, scfg), Config{Block: min(64, cfg.Capacity)})
		},
	})
}
