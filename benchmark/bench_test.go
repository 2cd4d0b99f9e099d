package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"shmrename"
)

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := w.schedule(7, 1, 200*time.Millisecond, 50*time.Millisecond)
		b := w.schedule(7, 1, 200*time.Millisecond, 50*time.Millisecond)
		c := w.schedule(8, 1, 200*time.Millisecond, 50*time.Millisecond)
		if !slices.Equal(a.arrive, b.arrive) || !slices.Equal(a.expire, b.expire) || !slices.Equal(a.initial, b.initial) {
			t.Errorf("%s: the same seed gave two schedules", w.name)
		}
		if slices.Equal(a.arrive, c.arrive) || slices.Equal(a.expire, c.expire) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if len(a.initial) != w.population(0) {
			t.Errorf("%s: %d prefilled holders, want %d", w.name, len(a.initial), w.population(0))
		}
		if !slices.IsSorted(a.arrive) {
			t.Errorf("%s: arrivals out of order", w.name)
		}
		for i := range a.arrive {
			if a.expire[i] < a.arrive[i] {
				t.Fatalf("%s: arrival %d expires before it arrives", w.name, i)
			}
		}
	}
}

func TestScheduleRate(t *testing.T) {
	w := lookupWorkload("steady")
	s := w.schedule(1, 0, time.Second, 0)
	if n := len(s.arrive); n < 48000 || n > 52000 {
		t.Errorf("steady drew %d arrivals in 1 s, want about 50000", n)
	}
	d := lookupWorkload("diurnal")
	if lo, hi := d.population(0), d.population(0.5); lo != 200 || hi != 2000 {
		t.Errorf("diurnal population runs %d..%d, want 200..2000", lo, hi)
	}
}

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	unsorted := []float64{9, 1, 5}
	if got := median(unsorted); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if !slices.Equal(unsorted, []float64{9, 1, 5}) {
		t.Error("median reordered its input")
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

// fakeTarget hands out names from a script and fails releases on demand.
type fakeTarget struct {
	names      []int
	releaseErr error
}

func (f *fakeTarget) Acquire() (int, error) {
	n := f.names[0]
	f.names = f.names[1:]
	return n, nil
}

func (f *fakeTarget) Release(int) error { return f.releaseErr }
func (f *fakeTarget) Heartbeat() int    { return 0 }

func TestLedgerCatchesDuplicateGrant(t *testing.T) {
	led := newLedger(64, 64)
	settle(&fakeTarget{names: []int{3, 9, 3}}, led, nil, 3)
	if v := led.violations(); len(v) != 1 || !strings.Contains(v[0], "duplicate grant of name 3") {
		t.Fatalf("violations = %q, want one duplicate grant of name 3", v)
	}
}

func TestLedgerCatchesRefusedRelease(t *testing.T) {
	led := newLedger(64, 64)
	f := &fakeTarget{names: []int{1, 2}}
	held, _ := settle(f, led, nil, 2)
	f.releaseErr = fmt.Errorf("%w: name 2", shmrename.ErrNotHeld)
	settle(f, led, held, 1)
	if v := led.violations(); len(v) != 1 || !strings.Contains(v[0], "name not held") {
		t.Fatalf("violations = %q, want one ErrNotHeld release", v)
	}
}

func TestLedgerClassifiesFalseFull(t *testing.T) {
	led := newLedger(64, 8)
	held, _ := settle(&fakeTarget{names: []int{0, 1, 2, 3, 4, 5}}, led, nil, 6)
	errFull := fmt.Errorf("%w: capacity 8", shmrename.ErrArenaFull)
	led.acquireFailed(errFull, 2) // 6 live, capacity 8, 2 workers: genuinely full
	if led.falseFull.Load() != 0 {
		t.Error("ErrArenaFull at capacity - workers counted as a false full")
	}
	led.releasing(held[0])
	led.acquireFailed(errFull, 2) // 5 live: below capacity - workers
	if led.falseFull.Load() != 1 || led.failed.Load() != 2 {
		t.Errorf("falseFull = %d, failed = %d; want 1, 2", led.falseFull.Load(), led.failed.Load())
	}
	if v := led.violations(); len(v) != 0 {
		t.Errorf("ErrArenaFull recorded as a fault: %q", v)
	}
	led.acquireFailed(errors.New("boom"), 1)
	if v := led.violations(); len(v) != 1 {
		t.Errorf("an acquire error other than ErrArenaFull is not a fault: %q", v)
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) > 4 {
		t.Fatalf("%d end-to-end metrics, %d per-layer, %d workloads; want at most 16, 128, 4",
			len(endToEnd), len(perLayer), len(workloads))
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !namePattern.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v must be positive and at most setup_s's", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !namePattern.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q", i, spec.Workloads[i], w.name)
		}
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
}

func TestTracedStackMatchesPublicArena(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	for _, w := range workloads {
		if err := checkStack(w, 1, workers); err != nil {
			t.Error(err)
		}
	}
}

// TestRunReportsEveryMetric runs the benchmark briefly, untraced and
// traced, and checks the result line.
func TestRunReportsEveryMetric(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {t.TempDir() + "/spans.jsonl", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "cached-leased", "-seconds", "0.5", "-seed", "3", "-trace", c.trace}
		code := run(args, &stdout, &stderr)
		if code != 0 && code != exitInvalid {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, stderr.String())
		}
		if code == exitInvalid {
			t.Logf("trace %s: %s", c.trace, stderr.String()) // a loaded host can starve the pacer
			continue
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", c.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", c.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", c.trace, d.Name, v.Unit)
			}
		}
	}
}
