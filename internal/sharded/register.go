package sharded

import (
	"shmrename/internal/longlived"
	"shmrename/internal/registry"
)

// registryShards is the default stripe count of the registry-constructed
// arena (Config.Shards overrides it). It is a fixed constant — not
// GOMAXPROCS — so the registered backend is deterministic: the same seed
// replays the same schedule on any machine, which the conformance
// fingerprint law and the simulated E15 churn rows rely on. It matches the
// E18 fault-injection shape.
const registryShards = 4

// RegistryConfig translates the registry's common config into the
// frontend's, for this package's registration and for the caching layers
// registered over it: Shards defaults to registryShards and is clamped to
// Capacity, Elastic stripes elastic sub-arenas, the word engine scans
// unless Scan asks for "bit", and the stripes are padded only when Padded
// asks for it.
func RegistryConfig(cfg registry.Config) Config {
	shards := cfg.Shards
	if shards == 0 {
		shards = registryShards
	}
	return Config{
		Shards:    min(shards, cfg.Capacity),
		MaxPasses: cfg.MaxPasses,
		WordScan:  cfg.Scan != "bit",
		Padded:    cfg.Padded,
		Lease:     longlived.Lease(cfg),
		Elastic:   cfg.Elastic,
		Label:     cfg.Label,
	}
}

func init() {
	registry.Register(registry.Backend{
		Name: "sharded",
		Caps: registry.Caps{
			Batch:         true,
			Leasable:      true,
			Sharded:       true,
			WordScan:      true,
			Deterministic: true,
			SelfHealing:   true,
		},
		New: func(cfg registry.Config) registry.Arena {
			return New(cfg.Capacity, RegistryConfig(cfg))
		},
	})
}
