// Command renamebench regenerates the paper-reproduction experiments
// E1-E21 (see ALGORITHMS.md §6) and prints their report
// tables.
//
// Usage:
//
//	renamebench -list
//	renamebench -exp E2,E4 -trials 31 -seed 1
//	renamebench -exp all -full -csv out/
//
// -full widens every n-sweep to report scale (minutes of runtime);
// without it a quick sweep runs in seconds per experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shmrename/internal/harness"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list experiments and exit")
		exp    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		trials = flag.Int("trials", harness.DefaultTrials, "seeded trials per parameter point")
		seed   = flag.Uint64("seed", 1, "base seed")
		full   = flag.Bool("full", false, "full report-scale sweeps")
		csvDir = flag.String("csv", "", "also write each table as CSV into this directory")
		recov  = flag.Bool("recovery-smoke", false, "run the native crash-recovery smoke (abandoned-lease reclaim on every backend + mmap reattach) and exit")
		chaosO = flag.String("chaos", "", "run the E21 chaos matrix and write the accounting JSON to this path")
	)
	flag.Parse()

	if *recov {
		if err := runRecoverySmoke(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("recovery smoke passed")
		return
	}

	if *chaosO != "" {
		if err := runChaos(*chaosO, *seed, *trials); err != nil {
			fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chaos accounting written to %s\n", *chaosO)
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "renamebench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	cfg := harness.Config{Trials: *trials, Seed: *seed, Full: *full}
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    claim: %s\n\n", e.Claim)
		tables := e.Run(cfg)
		for ti, tab := range tables {
			fmt.Println(tab.Render())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
					os.Exit(1)
				}
				name := fmt.Sprintf("%s_%d.csv", e.ID, ti)
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("(csv written to %s)\n\n", path)
			}
		}
		fmt.Printf("=== %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
