package harness

import (
	"strconv"
	"strings"
	"testing"

	"shmrename/internal/metrics"
)

func tiny() Config { return Config{Trials: 2, Seed: 11} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("ByID(%s) missing", id)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete: %+v", id, e)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).trials() != DefaultTrials {
		t.Fatal("default trials")
	}
	if (Config{Trials: 3}).trials() != 3 {
		t.Fatal("explicit trials")
	}
	q := Config{}.sweep([]int{1}, []int{1, 2})
	if len(q) != 1 {
		t.Fatal("quick sweep")
	}
	f := Config{Full: true}.sweep([]int{1}, []int{1, 2})
	if len(f) != 2 {
		t.Fatal("full sweep")
	}
}

func TestPow2s(t *testing.T) {
	got := pow2s(3, 5)
	want := []int{8, 16, 32}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pow2s = %v", got)
		}
	}
}

// tinyTables memoizes experiment runs across tests: every experiment is
// deterministic at a fixed Config, so tests sharing an ID (e.g. the E15
// churn invariants and the elastic tightness envelope) validate one run
// instead of paying for the sweep twice.
var tinyTables = map[string][]*metrics.Table{}

// checkTables runs an experiment at tiny scale and sanity-checks output.
func checkTables(t *testing.T, id string) []*metrics.Table {
	t.Helper()
	if tabs, ok := tinyTables[id]; ok {
		return tabs
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	tabs := e.Run(tiny())
	tinyTables[id] = tabs
	if len(tabs) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s table %q has no rows", id, tab.Title)
		}
		out := tab.Render()
		if !strings.Contains(out, tab.Title) {
			t.Fatalf("%s render missing title", id)
		}
		if tab.CSV() == "" {
			t.Fatalf("%s CSV empty", id)
		}
	}
	return tabs
}

func TestE1Lemma3HoldsAtLargeC(t *testing.T) {
	tabs := checkTables(t, "E1")
	// Every c=6 row must report zero failures (bound <= 1/n^2).
	for _, row := range tabs[0].Rows {
		if row[0] == "6" && row[8] != "0" {
			t.Fatalf("E1 c=6 row has failures: %v", row)
		}
	}
}

func TestE2AllNamed(t *testing.T) {
	tabs := checkTables(t, "E2")
	for _, row := range tabs[0].Rows {
		if row[7] != "true" {
			t.Fatalf("E2 row not all named: %v", row)
		}
	}
}

// TestE3SpaceLinear pins the τ-register array's TAS bits over the quick
// sweep (n = 2^7 … 2^16) and holds them to Theorem 5's ~2n auxiliary bits:
// bits/n at most 2.08, the n = 128 cell's 266/128 rounded up.
func TestE3SpaceLinear(t *testing.T) {
	want := []int{266, 512, 1026, 2060, 4114, 8208, 16406, 32788, 65550, 131072}
	rows := checkTables(t, "E3")[0].Rows
	if len(rows) != len(want) {
		t.Fatalf("E3 has %d rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		n, errN := strconv.Atoi(row[0])
		bits, errB := strconv.Atoi(row[3])
		if errN != nil || errB != nil {
			t.Fatalf("E3 row %v: n or bits not an integer", row)
		}
		if wantN := 128 << i; n != wantN || bits != want[i] {
			t.Errorf("E3 n=%d: %d τ-register bits, want golden n=%d with %d", n, bits, wantN, want[i])
		}
		if float64(bits) > 2.08*float64(n) {
			t.Errorf("E3 n=%d: %d bits is %.3f per name, above 2.08", n, bits, float64(bits)/float64(n))
		}
	}
}

func TestE4WithinBounds(t *testing.T) {
	tabs := checkTables(t, "E4")
	for _, row := range tabs[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("E4 row outside Lemma 6 bound: %v", row)
		}
	}
}

func TestE5AllNamed(t *testing.T) {
	tabs := checkTables(t, "E5")
	for _, row := range tabs[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("E5 row not all named: %v", row)
		}
	}
}

func TestE6WithinBounds(t *testing.T) {
	tabs := checkTables(t, "E6")
	for _, row := range tabs[0].Rows {
		ell, gamma := row[0], row[1]
		// The paper's literal gamma=1 constant misses its own l=2 bound
		// at finite n (documented finding); l=1 and the gamma=2 rows
		// must be within bound.
		if ell == "1" || gamma == "2" {
			if row[len(row)-1] != "true" {
				t.Fatalf("E6 row outside Lemma 8 bound: %v", row)
			}
		}
	}
}

func TestE7AllNamed(t *testing.T) {
	tabs := checkTables(t, "E7")
	for _, row := range tabs[0].Rows {
		if row[8] != "true" {
			t.Fatalf("E7 row not all named: %v", row)
		}
	}
}

func TestE8ProducesFits(t *testing.T) {
	tabs := checkTables(t, "E8")
	if len(tabs) != 2 {
		t.Fatalf("E8 tables = %d", len(tabs))
	}
	if len(tabs[1].Rows) != 5 {
		t.Fatalf("E8 fit rows = %d", len(tabs[1].Rows))
	}
}

func TestE9OverheadAboveOne(t *testing.T) {
	tabs := checkTables(t, "E9")
	for _, row := range tabs[0].Rows {
		if row[3] == "" || row[3] == "0" {
			t.Fatalf("E9 missing overhead factor: %v", row)
		}
	}
}

func TestE10AllPoliciesCorrect(t *testing.T) {
	tabs := checkTables(t, "E10")
	if len(tabs) != 2 {
		t.Fatalf("E10 tables = %d", len(tabs))
	}
	for _, row := range tabs[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("E10 row failed uniqueness: %v", row)
		}
	}
}

func TestE11NoViolations(t *testing.T) {
	tabs := checkTables(t, "E11")
	for _, row := range tabs[0].Rows {
		if row[4] != "0" {
			t.Fatalf("E11 violations: %v", row)
		}
		if row[7] != "0" {
			t.Fatalf("E11 unresolved: %v", row)
		}
	}
}

func TestE13AdaptiveWithinLimits(t *testing.T) {
	tabs := checkTables(t, "E13")
	for _, row := range tabs[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("E13 row not all named: %v", row)
		}
		maxName, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad max-name cell %q", row[1])
		}
		limit, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad limit cell %q", row[2])
		}
		if maxName >= limit {
			t.Fatalf("E13 adaptive name limit violated: %v", row)
		}
	}
}

func TestE12ShowsGeometryContrast(t *testing.T) {
	tabs := checkTables(t, "E12")
	// Paper-literal rows must have materially higher fallback fractions
	// than corrected rows at the same n.
	byN := map[string]map[string]float64{}
	for _, row := range tabs[0].Rows {
		n, kind := row[0], row[1]
		fb, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad fallback cell %q: %v", row[4], err)
		}
		if byN[n] == nil {
			byN[n] = map[string]float64{}
		}
		byN[n][kind] = fb
	}
	for n, kinds := range byN {
		if kinds["corrected"]+0.25 >= kinds["paper-literal"] {
			t.Fatalf("n=%s: corrected fallback %.3f not clearly below literal %.3f",
				n, kinds["corrected"], kinds["paper-literal"])
		}
	}
}

func TestE15ChurnInvariants(t *testing.T) {
	tabs := checkTables(t, "E15")
	for _, row := range tabs[0].Rows {
		// Acquires drained: every (backend, n, k) cell churned k workers
		// for the stated cycle count over all trials.
		k, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad k cell %q: %v", row[2], err)
		}
		cycles, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("bad cycles cell %q: %v", row[3], err)
		}
		acquires, err := strconv.Atoi(row[len(row)-1])
		if err != nil {
			t.Fatalf("bad acquires cell %q: %v", row[len(row)-1], err)
		}
		if want := k * cycles * tiny().Trials; acquires != want {
			t.Fatalf("E15 row acquires %d, want %d: %v", acquires, want, row)
		}
		// The level arena's adaptivity claim: issued names stay within a
		// small constant of the peak occupancy.
		if row[0] == "level-array" {
			ratio, err := strconv.ParseFloat(row[6], 64)
			if err != nil {
				t.Fatalf("bad name/active cell %q: %v", row[6], err)
			}
			if ratio > 16 {
				t.Fatalf("E15 level arena name/active ratio %.1f too large: %v", ratio, row)
			}
		}
	}
}

// TestElasticTightUnderResize pins the tightness-under-resize envelope
// from the recorded E15/E17 rows: at equal peak holder count k, the
// elastic ladder must stay within the level prefix a fixed ladder
// provisioned for that contention would own — issued names and resident
// capacity both (the per-trial assertElasticAdaptive gate enforces the
// capacity half; this re-derives the name half from the table). The rows
// must exist: the registry enumeration feeding both experiments is
// required to include the elastic backend.
func TestElasticTightUnderResize(t *testing.T) {
	rows := 0
	for _, row := range checkTables(t, "E15")[0].Rows {
		if row[0] != "elastic-level" {
			continue
		}
		rows++
		n, _ := strconv.Atoi(row[1])
		k, _ := strconv.Atoi(row[2])
		peak, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			t.Fatalf("bad peak-active cell %q: %v", row[4], err)
		}
		maxName, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatalf("bad max-name cell %q: %v", row[5], err)
		}
		if env := elasticEnvelope(n, peak+int64(k)); int64(maxName) > env {
			t.Fatalf("E15 elastic max name+1 %d outside the %d-name envelope of %d peak holders: %v",
				maxName, env, peak, row)
		}
	}
	for _, row := range checkTables(t, "E17")[0].Rows {
		if row[0] != "elastic-level" {
			continue
		}
		rows++
		n, _ := strconv.Atoi(row[2])
		batch, _ := strconv.Atoi(row[3])
		k, _ := strconv.Atoi(row[4])
		peak, err := strconv.ParseInt(row[8], 10, 64)
		if err != nil {
			t.Fatalf("bad peak-active cell %q: %v", row[8], err)
		}
		maxName, err := strconv.Atoi(row[7])
		if err != nil {
			t.Fatalf("bad max-name cell %q: %v", row[7], err)
		}
		if env := elasticEnvelope(n, peak+int64(k*batch)); int64(maxName) > env {
			t.Fatalf("E17 elastic max name+1 %d outside the %d-name envelope of %d peak holders: %v",
				maxName, env, peak, row)
		}
	}
	if rows == 0 {
		t.Fatal("no elastic-level rows in E15/E17 — the registry enumeration dropped the backend")
	}
}

func TestE16ShardedInvariants(t *testing.T) {
	tabs := checkTables(t, "E16")
	for _, row := range tabs[0].Rows {
		// Every cell drained its full churn: workers x cycles x trials.
		g, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad goroutines cell %q: %v", row[2], err)
		}
		acquires, err := strconv.Atoi(row[4])
		if err != nil {
			t.Fatalf("bad acquires cell %q: %v", row[4], err)
		}
		if want := g * e16Churn.Cycles * tiny().Trials; acquires != want {
			t.Fatalf("E16 row acquires %d, want %d: %v", acquires, want, row)
		}
		// The tightness envelope: issued names stay below the arena bound,
		// and under tight provisioning peak occupancy reaches the capacity.
		maxName, err := strconv.Atoi(row[7])
		if err != nil {
			t.Fatalf("bad max-name cell %q: %v", row[7], err)
		}
		capacity, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("bad capacity cell %q: %v", row[3], err)
		}
		// Level ladders bound issued names by < 4x capacity (single and
		// striped alike; see LevelArena).
		if maxName > 4*capacity {
			t.Fatalf("E16 max name %d blows the 4x capacity envelope: %v", maxName, row)
		}
	}
}

func TestE17WordEngineInvariants(t *testing.T) {
	tabs := checkTables(t, "E17")
	// steps/acquire of every (backend, n, batch) cell, keyed by scan mode,
	// to re-derive the word-vs-bit comparison from the raw rows.
	steps := make(map[string]map[string]float64)
	for _, row := range tabs[0].Rows {
		backend, scan := row[0], row[1]
		k, err := strconv.Atoi(row[4])
		if err != nil {
			t.Fatalf("bad k cell %q: %v", row[4], err)
		}
		acquires, err := strconv.Atoi(row[len(row)-1])
		if err != nil {
			t.Fatalf("bad acquires cell %q: %v", row[len(row)-1], err)
		}
		batch, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("bad batch cell %q: %v", row[3], err)
		}
		// Every cell drained its full churn: k workers x cycles x batch
		// names per cycle x trials.
		if want := k * e17Churn.Cycles * batch * tiny().Trials; acquires != want {
			t.Fatalf("E17 row acquires %d, want %d: %v", acquires, want, row)
		}
		cell := backend + "/" + row[2] + "/" + row[3]
		if steps[cell] == nil {
			steps[cell] = make(map[string]float64)
		}
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad steps cell %q: %v", row[5], err)
		}
		steps[cell][scan] = v
	}
	for cell, modes := range steps {
		bit, word := modes["bit"], modes["word"]
		if bit == 0 || word == 0 {
			t.Fatalf("cell %s missing a scan mode: %v", cell, modes)
		}
		// The tentpole claim at experiment scale: the word path must never
		// be costlier, and the level backend must beat 2x.
		if word > bit {
			t.Fatalf("cell %s: word path %.1f steps/acquire above bit path %.1f", cell, word, bit)
		}
		if strings.HasPrefix(cell, "level-array/") && word*2 > bit {
			t.Fatalf("cell %s: word path %.1f not >= 2x below bit path %.1f", cell, word, bit)
		}
	}
}

func TestE18FaultInjectionInvariants(t *testing.T) {
	tabs := checkTables(t, "E18")
	for _, row := range tabs[0].Rows {
		// Crash modes drawn per worker must sum to workers x rounds x trials.
		k, _ := strconv.Atoi(row[2])
		rounds, _ := strconv.Atoi(row[3])
		total := 0
		for _, col := range []int{4, 5, 6, 7} {
			v, err := strconv.Atoi(row[col])
			if err != nil {
				t.Fatalf("bad mode cell %q: %v", row[col], err)
			}
			total += v
		}
		if want := k * rounds * tiny().Trials; total != want {
			t.Fatalf("E18 modes sum %d, want %d: %v", total, want, row)
		}
		// Every mid-release victim is adopted (ClearOwned zeroed its stamp);
		// a pre-publish orphan is adopted only when its slot's stamp was
		// zero — one landing on a stale tombstone left by an earlier
		// round's reclaim is swept directly as a walked-away bit.
		prepub, _ := strconv.Atoi(row[6])
		midrel, _ := strconv.Atoi(row[7])
		adopted, _ := strconv.Atoi(row[9])
		if adopted < midrel || adopted > prepub+midrel {
			t.Fatalf("E18 adopted %d outside [%d, %d]: %v", adopted, midrel, prepub+midrel, row)
		}
		// Resumed reclaims equal the planted reaper crashes.
		planted, _ := strconv.Atoi(row[8])
		resumed, _ := strconv.Atoi(row[11])
		if resumed != planted {
			t.Fatalf("E18 resumed %d, want %d planted suspects: %v", resumed, planted, row)
		}
		// Only the tau backend may leak device bits.
		leaked, _ := strconv.Atoi(row[12])
		if row[0] != "tau-longlived" && leaked != 0 {
			t.Fatalf("E18 non-tau backend leaked: %v", row)
		}
		if row[0] == "tau-longlived" && leaked != prepub+midrel {
			t.Fatalf("E18 tau leak %d, want one bit per crash window %d: %v", leaked, prepub+midrel, row)
		}
	}
}

func TestE19OpenLoopInvariants(t *testing.T) {
	tabs := checkTables(t, "E19")
	if len(tabs) != 2 {
		t.Fatalf("E19 tables = %d", len(tabs))
	}
	for _, row := range tabs[0].Rows {
		// Accounting: every scheduled arrival is either served or dropped.
		offered, _ := strconv.Atoi(row[3])
		served, _ := strconv.Atoi(row[4])
		dropped, _ := strconv.Atoi(row[5])
		if served+dropped != offered {
			t.Fatalf("E19 served %d + dropped %d != offered %d: %v", served, dropped, offered, row)
		}
		// A provisioned arena never drops: capacity far exceeds in-flight.
		if dropped != 0 {
			t.Fatalf("E19 provisioned arena dropped arrivals: %v", row)
		}
		// Quantiles are ordered: p50 <= p99 <= p999.
		p50, err1 := strconv.ParseFloat(row[7], 64)
		p99, err2 := strconv.ParseFloat(row[8], 64)
		p999, err3 := strconv.ParseFloat(row[9], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("bad quantile cells: %v", row)
		}
		if p50 > p99 || p99 > p999 {
			t.Fatalf("E19 quantiles out of order: %v", row)
		}
	}
	// Knee table: one row per enumerated backend, knee rate within the
	// swept range.
	if want := len(e19Backends()); len(tabs[1].Rows) != want {
		t.Fatalf("E19 knee rows = %d, want %d", len(tabs[1].Rows), want)
	}
	for _, row := range tabs[1].Rows {
		knee, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad knee cell %q: %v", row[2], err)
		}
		if knee <= 0 {
			t.Fatalf("E19 no saturation knee found: %v", row)
		}
	}
}

func TestE20DiurnalInvariants(t *testing.T) {
	tabs := checkTables(t, "E20")
	// One row per (backend, n, phase) at trial 0; re-derive the diurnal
	// shape from the recorded rows: residency rises from the opening
	// trickle to cover the peak phase's measured concurrency, then drains
	// back inside the final trickle's envelope — the same law the
	// in-experiment assertions enforce on every trial, pinned here against
	// the recorded table itself.
	type key struct{ backend, n string }
	type phase struct{ k, active, capEnd, peakCap int }
	rows := map[key][]phase{}
	for _, row := range tabs[0].Rows {
		k, _ := strconv.Atoi(row[3])
		active, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatalf("bad peak-active cell %q: %v", row[5], err)
		}
		c, err := strconv.Atoi(row[6])
		if err != nil {
			t.Fatalf("bad cap@end cell %q: %v", row[6], err)
		}
		peak, err := strconv.Atoi(row[7])
		if err != nil {
			t.Fatalf("bad peak-cap cell %q: %v", row[7], err)
		}
		if c > peak {
			t.Fatalf("E20 cap@end %d above peak %d: %v", c, peak, row)
		}
		id := key{row[0], row[1]}
		rows[id] = append(rows[id], phase{k, active, c, peak})
	}
	if len(rows) == 0 {
		t.Fatal("no E20 rows — the registry enumeration has no elastic backend")
	}
	for id, phases := range rows {
		n, _ := strconv.Atoi(id.n)
		if len(phases) != len(e20Phases(n)) {
			t.Fatalf("E20 %s n=%s: %d phase rows, want %d", id.backend, id.n, len(phases), len(e20Phases(n)))
		}
		mid := len(phases) / 2
		if phases[mid].peakCap <= phases[0].peakCap {
			t.Fatalf("E20 %s n=%s: peak capacity %d never rose above opening %d",
				id.backend, id.n, phases[mid].peakCap, phases[0].peakCap)
		}
		if phases[mid].peakCap < phases[mid].active {
			t.Fatalf("E20 %s n=%s: peak capacity %d below the peak phase's %d concurrent holders",
				id.backend, id.n, phases[mid].peakCap, phases[mid].active)
		}
		last := phases[len(phases)-1]
		if env := elasticEnvelope(n, int64(16*last.k)); int64(last.capEnd) > env {
			t.Fatalf("E20 %s n=%s: final residency %d outside the %d-name envelope of k=%d",
				id.backend, id.n, last.capEnd, env, last.k)
		}
	}
}

func TestE14SimNativeAgree(t *testing.T) {
	tabs := checkTables(t, "E14")
	for _, row := range tabs[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("E14 row not all named: %v", row)
		}
		ratio, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q: %v", row[5], err)
		}
		// Same magnitude: native p50 within 4x of simulated p50 either way.
		if ratio < 0.25 || ratio > 4 {
			t.Fatalf("E14 sim/native diverge: %v", row)
		}
	}
}

func TestE21ChaosInvariants(t *testing.T) {
	tabs := checkTables(t, "E21")
	for _, row := range tabs[0].Rows {
		if row[7] != "0" {
			t.Fatalf("E21 row left violations standing: %v", row)
		}
	}
	// The accounting report carries the same gates as the table, in a form
	// CI can diff: no violation standing, no duplicate ever, scrub a fixed
	// point, drain at or above the floor, and corruption actually injected.
	rep, _ := RunChaos(tiny())
	if len(rep.Cells) == 0 {
		t.Fatal("chaos report has no cells")
	}
	for _, c := range rep.Cells {
		if c.Unrepaired != 0 || c.DuplicateGrants != 0 || !c.ScrubIdle {
			t.Fatalf("chaos cell failed its gates: %+v", c)
		}
		if c.Drained < c.Floor {
			t.Fatalf("chaos cell drained %d below floor %d: %+v", c.Drained, c.Floor, c)
		}
		if len(c.Injected) == 0 {
			t.Fatalf("chaos cell injected nothing: %+v", c)
		}
	}
}
