// Command benchmark measures the public shmrename.Arena under clients that
// hold names: each acquires a name, holds it for an exponentially
// distributed time (mean 20 ms) and releases it, so about a thousand names
// stay live and every layer below the Arena does its real work.
//
// An untraced run prints the end-to-end metrics of each workload; a traced
// run rebuilds the same backend stack from the internal constructors,
// times the calls into each layer, and prints the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Run it from the repository root with benchmark/run.sh; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes besides 0.
const (
	exitUsage     = 2
	exitIncorrect = 1 // a correctness violation
	exitInvalid   = 3 // the load generator, not the arena, set the numbers
	exitRepeat    = 4 // -repeat: two sets' medians differ by more than a bound
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", `workload to run, or "all"`)
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "seconds measured per workload")
	traceArg := fs.String("trace", "0", `"0": untraced run, end-to-end metrics; "1" or a path: traced run, per-layer metrics, spans written to the path (.bench_build/spans.jsonl for "1")`)
	repeat := fs.Int("repeat", 1, "untraced sets to run; from 2 on, exit nonzero if a set's median differs from the first's by more than the metric's bound")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	ws := workloads
	if *name != "all" {
		w := lookupWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return exitUsage
		}
		ws = []*workload{w}
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "-seconds must be positive and -repeat at least 1")
		return exitUsage
	}
	workers := runtime.GOMAXPROCS(0)

	if *traceArg != "0" && *traceArg != "" {
		path := *traceArg
		if path == "1" {
			path = ".bench_build/spans.jsonl"
		}
		var outs []outcome
		var batches []spanBatch
		for _, w := range ws {
			o, b := traceOne(w, *seed, *seconds, workers)
			outs = append(outs, o)
			batches = append(batches, b...)
		}
		if err := writeSpans(path, batches); err != nil {
			fmt.Fprintf(stderr, "writing spans: %v\n", err)
			return exitIncorrect
		}
		return report(ws, outs, perLayer, nil, stdout, stderr)
	}

	sets := make([][]outcome, *repeat)
	for s := range sets {
		sets[s] = measure(ws, *seed+uint64(s), *seconds, workers)
	}
	agreed := len(sets) == 1 || agree(ws, sets, stdout)
	code := report(ws, sets[len(sets)-1], endToEnd, ungated, stdout, stderr)
	if code == 0 && !agreed {
		code = exitRepeat
	}
	return code
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs and of info per workload, then the
// result line, which holds the metrics of defs alone. With one workload
// the metric names are bare; with several each is prefixed by its
// workload. It returns the exit code.
func report(ws []*workload, outs []outcome, defs, info []metricDef, stdout, stderr io.Writer) int {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var invalid []string
	for i, w := range ws {
		o := outs[i]
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, f := range o.faults {
			fmt.Fprintf(stderr, "%s: FAULT: %s\n", w.name, f)
			res.Correct = false
		}
		for _, why := range o.invalid {
			invalid = append(invalid, w.name+": "+why)
		}
		for _, d := range defs {
			v := o.metrics[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(stdout, "%-14s %-32s %16.6g %s\n", w.name, d.Name, v, d.Unit)
			key := d.Name
			if len(ws) > 1 {
				key = w.name + "." + d.Name
			}
			res.Metrics[key] = metricValue{v, d.Unit}
		}
		for _, d := range info {
			fmt.Fprintf(stdout, "%-14s %-32s %16.6g %s (not gated)\n", w.name, d.Name, o.metrics[d.Name], d.Unit)
		}
	}
	if len(invalid) > 0 {
		fmt.Fprintf(stderr, "INVALID (the numbers measure the load generator): %s\n", strings.Join(invalid, "; "))
		return exitInvalid
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "encoding result: %v\n", err)
		return exitIncorrect
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return exitIncorrect
	}
	return 0
}

// agree prints, per workload and end-to-end metric, the first set's median,
// each later set's, their relative gap and the metric's bound, and reports
// whether every gap stays within its bound.
func agree(ws []*workload, sets [][]outcome, stdout io.Writer) bool {
	ok := true
	fmt.Fprintf(stdout, "%-14s %-28s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set n", "gap", "bound")
	for i, w := range ws {
		for _, d := range endToEnd {
			a := sets[0][i].metrics[d.Name]
			for s := 1; s < len(sets); s++ {
				b := sets[s][i].metrics[d.Name]
				gap := math.Abs(b-a) / math.Abs(a)
				verdict := ""
				if !(gap <= d.Bound) {
					verdict, ok = "  EXCEEDS", false
				}
				fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g %7.2f%% %6.0f%%%s\n",
					w.name, d.Name, a, b, 100*gap, 100*d.Bound, verdict)
			}
		}
	}
	return ok
}
