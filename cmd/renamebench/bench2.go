package main

// BENCH_2.json generation: the churn-workload trajectory for the
// long-lived arena (internal/longlived). It records wall-clock, allocation,
// and step costs of sustained acquire/release churn — k = n/4 workers
// cycling names on a capacity-n arena — for both backends, plus the
// adaptivity signal (max issued name vs. peak simultaneous holders).
// Subsequent perf PRs regenerate the file with -bench2 and must not regress
// its steps-per-acquire column.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"shmrename/internal/longlived"
	"shmrename/internal/registry"
	"shmrename/internal/sched"
)

// bench2Point is one measured (backend, n) churn cell.
type bench2Point struct {
	Backend         string  `json:"backend"`
	N               int     `json:"n"`
	K               int     `json:"k"`
	Cycles          int     `json:"cycles"`
	NsPerOp         float64 `json:"ns_per_op"`
	StepsPerAcquire float64 `json:"steps_per_acquire"`
	MaxName         int64   `json:"max_name"`
	MaxActive       int64   `json:"max_active"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
}

type bench2File struct {
	Description string        `json:"description"`
	GoOS        string        `json:"goos"`
	GoArch      string        `json:"goarch"`
	Seed        uint64        `json:"seed"`
	MaxN        int           `json:"max_n"`
	Results     []bench2Point `json:"results"`
}

// bench2StepsTolerance is the allowed relative growth of steps/acquire
// against a baseline trajectory before -bench2-against reports a
// regression. Steps are deterministic per seed, but the per-point mean is
// taken over however many iterations testing.Benchmark chooses, so the
// slack absorbs the seed-set difference; the regression class this gate
// exists for — an extra probe round, a broken fallback, a word path
// accidentally wired into the canonical probe workload — moves the metric
// tens of percent.
const bench2StepsTolerance = 0.10

// compareBench2 checks a fresh churn trajectory against a baseline
// BENCH_2.json: steps/acquire may not grow beyond the tolerance at any
// (backend, n) point present in both. Wall clock is advisory only.
func compareBench2(cur bench2File, againstPath string) error {
	data, err := os.ReadFile(againstPath)
	if err != nil {
		return fmt.Errorf("bench2: reading baseline: %w", err)
	}
	var base bench2File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench2: parsing baseline %s: %w", againstPath, err)
	}
	type key struct {
		backend string
		n       int
	}
	baseline := make(map[key]bench2Point, len(base.Results))
	for _, p := range base.Results {
		baseline[key{p.Backend, p.N}] = p
	}
	var regressions []string
	compared := 0
	for _, p := range cur.Results {
		b, ok := baseline[key{p.Backend, p.N}]
		if !ok {
			continue
		}
		compared++
		if p.StepsPerAcquire > b.StepsPerAcquire*(1+bench2StepsTolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s n=%d: steps/acquire %.2f exceeds baseline %.2f by more than %.0f%%",
				p.Backend, p.N, p.StepsPerAcquire, b.StepsPerAcquire, bench2StepsTolerance*100))
		}
		fmt.Fprintf(os.Stderr, "bench2: %s n=%d vs baseline: steps %.2f/%.2f, wall %.1f/%.1fms (advisory)\n",
			p.Backend, p.N, p.StepsPerAcquire, b.StepsPerAcquire, p.NsPerOp/1e6, b.NsPerOp/1e6)
	}
	if compared == 0 {
		return fmt.Errorf("bench2: no overlapping (backend, n) points between measurement and baseline %s", againstPath)
	}
	if len(regressions) > 0 {
		msg := "bench2: steps/acquire regressed vs " + againstPath
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return errors.New(msg)
	}
	fmt.Fprintf(os.Stderr, "bench2: %d points within %.0f%% of baseline %s\n",
		compared, bench2StepsTolerance*100, againstPath)
	return nil
}

// runBench2 measures the churn workload, writes the JSON file, and — when
// against is non-empty — fails on steps/acquire regressions versus that
// baseline trajectory.
func runBench2(path string, seed uint64, maxExp int, against string) error {
	if maxExp < 8 || maxExp > 20 || maxExp%2 != 0 {
		return fmt.Errorf("bench2: -bench2-maxexp %d must be even and within [8,20] (sweeps run n = 2^8, 2^10, .. 2^maxexp)", maxExp)
	}
	if f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		return err
	} else {
		f.Close()
	}
	out := bench2File{
		Description: "long-lived churn trajectory: k=n/4 workers acquire/hold/release on a capacity-n arena under FastFIFO; regenerate with: renamebench -bench2 " + path,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		Seed:        seed,
		MaxN:        1 << 8,
	}

	churn := longlived.DefaultChurn
	// The canonical churn pair, in report order: the registry builds its
	// simulated-mode shapes (per-bit probes, self-clocked τ), which are the
	// workload definition BENCH_2.json records.
	for _, name := range []string{"level-array", "tau-longlived"} {
		backend, ok := registry.Lookup(name)
		if !ok {
			return fmt.Errorf("bench2: backend %q is not registered", name)
		}
		for e := 8; e <= maxExp; e += 2 {
			n := 1 << e
			k := n / 4
			if n > out.MaxN {
				out.MaxN = n
			}
			var steps float64
			var maxName, maxActive int64
			iters := 0
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					arena := backend.New(registry.Config{Capacity: n})
					mon := longlived.NewMonitor(arena.NameBound())
					sched.Run(sched.Config{
						N:         k,
						Seed:      seed + uint64(i),
						Fast:      sched.FastFIFO,
						Body:      longlived.ChurnBody(arena, mon, churn),
						AfterStep: arena.Clock(),
					})
					if err := mon.Err(); err != nil {
						panic(fmt.Sprintf("bench2 %s n=%d: %v", name, n, err))
					}
					if held := arena.Held(); held != 0 {
						panic(fmt.Sprintf("bench2 %s n=%d: %d names held after drain", name, n, held))
					}
					steps += mon.StepsPerAcquire()
					if m := mon.MaxName(); m > maxName {
						maxName = m
					}
					if a := mon.MaxActive(); a > maxActive {
						maxActive = a
					}
					iters++
				}
			})
			p := bench2Point{
				Backend:         name,
				N:               n,
				K:               k,
				Cycles:          churn.Cycles,
				NsPerOp:         float64(r.NsPerOp()),
				StepsPerAcquire: steps / float64(iters),
				MaxName:         maxName,
				MaxActive:       maxActive,
				AllocsPerOp:     r.AllocsPerOp(),
				BytesPerOp:      r.AllocedBytesPerOp(),
			}
			out.Results = append(out.Results, p)
			fmt.Fprintf(os.Stderr, "bench2: %s n=%d k=%d: %.1fms/op, %.1f steps/acquire, max name %d @ %d active\n",
				name, n, k, p.NsPerOp/1e6, p.StepsPerAcquire, p.MaxName, p.MaxActive)
		}
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if against != "" {
		return compareBench2(out, against)
	}
	return nil
}
