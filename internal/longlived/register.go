package longlived

import (
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// Lease translates the registry's common lease fields into this package's
// LeaseOpts: nil when the registry config leaves the lease layer off,
// per-proc default holders unless the config pins a single identity.
// Backend register files (here, sharded, leasecache) share it so the
// holder-resolution rule cannot diverge between backends.
func Lease(cfg registry.Config) *LeaseOpts {
	if cfg.Epochs == nil {
		return nil
	}
	opts := &LeaseOpts{Epochs: cfg.Epochs}
	if cfg.Holder != 0 {
		h := cfg.Holder
		opts.Holder = func(*shm.Proc) uint64 { return h }
	}
	return opts
}

// The registered constructors build the canonical simulated-mode shapes —
// the per-bit probe path BENCH_2.json's churn workload measures, with
// self-clocked τ (observably equivalent to external clocking in simulated
// runs and cheaper; switching it changes step counts) — so the registry
// rows of the E15 churn experiment stay comparable with the recorded
// trajectories.
// All three backends implement the bit and word scan engines, so they
// honor the Config.Scan override (the E17 word-vs-bit matrix sweeps it) and
// the Padded knob for native multicore runs. "elastic-level" additionally
// honors Config.Elastic and declares Caps.Elastic, which opts it into the
// conformance resize laws and the adaptivity gates of E15/E17.
func init() {
	registry.Register(registry.Backend{
		Name: "level-array",
		Caps: registry.Caps{
			Leasable:      true,
			Deterministic: true,
			SelfHealing:   true,
		},
		New: func(cfg registry.Config) registry.Arena {
			return NewLevel(cfg.Capacity, LevelConfig{
				MaxPasses: cfg.MaxPasses,
				WordScan:  cfg.Scan == "word",
				Padded:    cfg.Padded,
				Lease:     Lease(cfg),
				Label:     cfg.Label,
			})
		},
	})
	registry.Register(registry.Backend{
		Name: "elastic-level",
		Caps: registry.Caps{
			Leasable:      true,
			Deterministic: true, // resizes serialize under the simulated gate
			Elastic:       true,
		},
		New: func(cfg registry.Config) registry.Arena {
			ecfg := ElasticConfig{
				MaxPasses: cfg.MaxPasses,
				WordScan:  cfg.Scan == "word",
				Padded:    cfg.Padded,
				Lease:     Lease(cfg),
				Label:     cfg.Label,
			}
			if e := cfg.Elastic; e != nil {
				ecfg.MinCapacity = e.MinCapacity
				ecfg.GrowAt = e.GrowAt
				ecfg.ShrinkAt = e.ShrinkAt
				ecfg.ShrinkAfter = e.ShrinkAfter
			}
			return NewElastic(cfg.Capacity, ecfg)
		},
	})
	registry.Register(registry.Backend{
		Name: "tau-longlived",
		Caps: registry.Caps{
			Leasable:      true,
			Deterministic: true,
			LeaksOnCrash:  true, // device bits; see TauConfig.Lease
		},
		New: func(cfg registry.Config) registry.Arena {
			return NewTau(cfg.Capacity, TauConfig{
				MaxPasses:   cfg.MaxPasses,
				WordScan:    cfg.Scan == "word",
				Padded:      cfg.Padded,
				SelfClocked: true,
				Lease:       Lease(cfg),
				Label:       cfg.Label,
			})
		},
	})
}
