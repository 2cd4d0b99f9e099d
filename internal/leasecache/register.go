package leasecache

import (
	"shmrename/internal/registry"
	"shmrename/internal/sharded"
)

func init() {
	registry.Register(registry.Backend{
		Name: "lease-cached",
		// Not Deterministic: slot assignment hashes proc IDs into a
		// GOMAXPROCS-sized slot array and TryLock outcomes depend on real
		// interleaving, and a cached arena may report full while parked
		// names exist in other workers' slots — so the simulated churn
		// invariants (every worker completes every cycle) do not apply.
		Caps: registry.Caps{
			Releasable:  true,
			Batch:       true,
			Leasable:    true,
			Sharded:     true,
			WordScan:    true,
			Cached:      true,
			SelfHealing: true,
		},
		New: func(cfg registry.Config) registry.Arena {
			// The production shape ArenaConfig.LeaseBlocks wires: per-worker
			// word-block caches over the word-scan sharded frontend, which
			// honors Shards and Elastic like the "sharded" backend.
			scfg := sharded.RegistryConfig(cfg)
			scfg.WordScan = true // a block is one bitmap word
			return New(sharded.New(cfg.Capacity, scfg), Config{Block: min(64, cfg.Capacity)})
		},
	})
}
