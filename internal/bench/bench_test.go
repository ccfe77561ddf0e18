package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/serve"
)

// okFlags are the nine hard gates of the v3 report.
var okFlags = []string{
	"equivalence_ok", "golden_ok", "serve_collapse_ok", "hash_vs_sort_ok", "planner_ok",
	"spill_degradation_ok", "fault_degradation_ok", "shard_scaling_ok", "obs_percentiles_ok",
}

// testBencher is a bencher over the given measurements with every flag
// raised, as run() starts one.
func testBencher(vals map[string]float64) *bencher {
	rep := &Report{}
	for _, k := range append([]string{"targets_met"}, okFlags...) {
		*rep.flag(k) = true
	}
	return &bencher{out: io.Discard, rep: rep, vals: vals}
}

func TestGateEval(t *testing.T) {
	vals := map[string]float64{"a": 6, "b": 2, "zero": 0, "c": 9, "d": 3}
	row := func(cmp string, want float64) gate {
		return gate{flag: "serve_collapse_ok", note: "r %.2fx (want %.1fx)", num: "a", den: "b", cmp: cmp, want: want}
	}
	for _, tc := range []struct {
		name    string
		g       gate
		note    string // expected note ("" with wantErr)
		wantErr string // substring of the expected error
	}{
		{name: "pass", g: row(">=", 2), note: "r 3.00x (want 2.0x)"},
		{name: "miss", g: row(">=", 4), note: "r 3.00x (want 4.0x) MISS"},
		{name: "ge at threshold passes", g: row(">=", 3), note: "r 3.00x (want 3.0x)"},
		{name: "gt at threshold misses", g: row(">", 3), note: "r 3.00x (want 3.0x) MISS"},
		{name: "lt at threshold misses", g: row("<", 3), note: "r 3.00x (want 3.0x) MISS"},
		{name: "lt below passes", g: row("<", 3.5), note: "r 3.00x (want 3.5x)"},
		{name: "num alone", g: gate{flag: "targets_met", note: "%.1f/%.1f", num: "a", cmp: ">=", want: 6}, note: "6.0/6.0"},
		{name: "measured limit", g: gate{flag: "hash_vs_sort_ok", note: "%.0f<%.0f", num: "b", cmp: "<", wantNum: "c", wantDen: "d"}, note: "2<3"},
		{name: "missing numerator", g: gate{flag: "serve_collapse_ok", note: "n", num: "renamed", den: "b", cmp: "<"}, wantErr: `"renamed"`},
		{name: "missing denominator", g: gate{flag: "serve_collapse_ok", note: "n", num: "a", den: "gone", cmp: "<"}, wantErr: `"gone"`},
		{name: "missing measured limit", g: gate{flag: "serve_collapse_ok", note: "n", num: "a", cmp: "<", wantNum: "nolimit"}, wantErr: `"nolimit"`},
		{name: "zero denominator", g: gate{flag: "serve_collapse_ok", note: "n", num: "a", den: "zero", cmp: "<"}, wantErr: "zero"},
		{name: "unknown flag", g: gate{flag: "nonsense_ok", note: "n", num: "a", cmp: "<"}, wantErr: "nonsense_ok"},
		{name: "unknown comparison", g: gate{flag: "serve_collapse_ok", note: "n", num: "a", cmp: "<="}, wantErr: `"<="`},
	} {
		b := testBencher(vals)
		err := b.eval(tc.g)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.wantErr)
			}
			if len(b.rep.TargetNotes) != 0 || !b.rep.ServeOK {
				t.Errorf("%s: an unevaluable gate still emitted %v / cleared its flag", tc.name, b.rep.TargetNotes)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if len(b.rep.TargetNotes) != 1 || b.rep.TargetNotes[0] != tc.note {
			t.Errorf("%s: notes = %q, want [%q]", tc.name, b.rep.TargetNotes, tc.note)
		}
		if miss := strings.HasSuffix(tc.note, " MISS"); *b.rep.flag(tc.g.flag) == miss {
			t.Errorf("%s: flag %s = %v after note %q", tc.name, tc.g.flag, !miss, tc.note)
		}
	}
}

// producibleKeys is every measurement key the workload and scenario
// tables produce in a run — without running anything.
func producibleKeys() map[string]bool {
	keys := map[string]bool{}
	for _, w := range workloads {
		keys[die(w.name, speedup)] = true
		for _, s := range settings {
			keys[key(w.name, s, simCycles)] = !w.twinOnly
		}
	}
	for _, w := range spillWorkloads {
		for _, r := range spillRatios {
			keys[die(spillName(w.name, r), simCycles)] = true
		}
	}
	served := func(sc scenario, s core.Setting) {
		for _, m := range []string{simCycles, throughput, goodput, p99} {
			keys[key(sc.name, s, m)] = true
		}
	}
	for _, s := range settings {
		for _, sc := range serveScenarios() {
			served(sc, s)
		}
	}
	fake := &serve.Workload{Classes: make([]serve.ClassCost, len(scaleWeights))}
	for i := range fake.Classes {
		fake.Classes[i].ServiceCycles = 1000
	}
	for _, sc := range append(faultScenarios(fake), scaleScenarios(fake)...) {
		served(sc, core.SGXDiE)
	}
	return keys
}

func TestTableInvariants(t *testing.T) {
	names := map[string]bool{}
	for _, w := range workloads {
		if names[w.name] || w.prep == nil {
			t.Errorf("workload %q: duplicate name or no prep", w.name)
		}
		names[w.name] = true
	}
	for _, w := range spillWorkloads {
		if names[w.name] || w.prep == nil {
			t.Errorf("spill workload %q: duplicate name or no prep", w.name)
		}
		names[w.name] = true
	}
	flags := map[string]bool{"targets_met": true}
	for _, k := range okFlags {
		flags[k] = true
	}
	keys, notes := producibleKeys(), map[string]bool{}
	for _, g := range gates {
		if notes[g.note] {
			t.Errorf("gate note %q appears twice", g.note)
		}
		notes[g.note] = true
		if !flags[g.flag] || (&Report{}).flag(g.flag) == nil {
			t.Errorf("gate %q: flag %q is not one of the nine *_ok report fields (or targets_met)", g.note, g.flag)
		}
		if g.cmp != "<" && g.cmp != ">" && g.cmp != ">=" {
			t.Errorf("gate %q: comparison %q", g.note, g.cmp)
		}
		if strings.Count(g.note, "%") != 2 {
			t.Errorf("gate %q: note must format exactly (value, limit)", g.note)
		}
		for _, k := range []string{g.num, g.den, g.wantNum, g.wantDen} {
			if k != "" && !keys[k] {
				t.Errorf("gate %q reads %q, which no workload or scenario table row produces", g.note, k)
			}
		}
		if g.num == "" || (g.wantNum == "" && g.wantDen != "") {
			t.Errorf("gate %q: missing numerator", g.note)
		}
	}
	if len(gates) != 24 {
		t.Errorf("gate table has %d rows, want 24 (1 hash-vs-sort, 8 spill, 2 serve, 3 fault, 4 shard, 6 targets)", len(gates))
	}
}

// TestReadmeListsGateFlags keeps the README's BENCH_engine.json field
// list from drifting behind the gate table.
func TestReadmeListsGateFlags(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(raw), "\n## BENCH_engine.json\n")
	if !ok {
		t.Fatal("README.md has no '## BENCH_engine.json' section")
	}
	seen := map[string]bool{}
	for _, g := range gates {
		if !seen[g.flag] && !strings.Contains(list, "`"+g.flag+"`") {
			t.Errorf("README BENCH_engine.json field list does not mention `%s`", g.flag)
		}
		seen[g.flag] = true
	}
}

func TestCompareGolden(t *testing.T) {
	entry := func(name string, cycles uint64) Result {
		return newResult(name, core.SGXDiE, "fast", 0, 1, sample{cycles: cycles, check: 7, stats: engine.Stats{Loads: 10, Stores: 4}})
	}
	rep := &Report{Sweep: []Result{entry("a", 100), entry("b", 200)}}
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.json")
	if err := writeGolden(path, rep, 4); err != nil {
		t.Fatal(err)
	}
	if drift := compareGolden(path, rep, 4); len(drift) != 0 {
		t.Fatalf("round trip drifts: %v", drift)
	}
	moved := &Report{Sweep: []Result{entry("a", 100), entry("b", 200)}}
	moved.Sweep[1].Stats.Loads, moved.Sweep[1].Stats.Stores = 11, 5
	rewrite := func(edit func(*goldenFile)) string {
		var g goldenFile
		raw, _ := os.ReadFile(path)
		if err := json.Unmarshal(raw, &g); err != nil {
			t.Fatal(err)
		}
		edit(&g)
		p := filepath.Join(dir, "edited.json")
		if err := writeJSON(p, g); err != nil {
			t.Fatal(err)
		}
		return p
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		path    string
		rep     *Report
		threads int
		want    []string // one substring per expected drift line, in order
	}{
		{"per-field stats drift", path, moved, 4, []string{"b/SGX DiE: stats.Loads 11, golden 10", "b/SGX DiE: stats.Stores 5, golden 4"}},
		{"cycles and check drift", path, &Report{Sweep: []Result{entry("a", 101), entry("b", 200)}}, 4, []string{"a/SGX DiE: sim_cycles 101, golden 100"}},
		{"entry missing from run", path, &Report{Sweep: []Result{entry("a", 100)}}, 4, []string{"b/SGX DiE: in golden but missing from this run"}},
		{"new entry not in golden", path, &Report{Sweep: []Result{entry("a", 100), entry("b", 200), entry("c", 1)}}, 4, []string{"c/SGX DiE: new deterministic workload not in golden"}},
		{"schema mismatch", rewrite(func(g *goldenFile) { g.Schema = "other/v0" }), rep, 4, []string{`has schema "other/v0"`}},
		{"threads mismatch", path, rep, 2, []string{"recorded with -threads 4, this run used 2"}},
		{"unreadable file", filepath.Join(dir, "absent.json"), rep, 4, []string{"cannot read"}},
		{"unparsable file", garbage, rep, 4, []string{"cannot parse"}},
	} {
		drift := compareGolden(tc.path, tc.rep, tc.threads)
		if len(drift) != len(tc.want) {
			t.Errorf("%s: drift = %q, want %d lines", tc.name, drift, len(tc.want))
			continue
		}
		for i, want := range tc.want {
			if !strings.Contains(drift[i], want) {
				t.Errorf("%s: drift[%d] = %q, want it to contain %q", tc.name, i, drift[i], want)
			}
		}
	}
}

// TestGoldenSection drives the -check-golden path of the golden section:
// a drifted run clears golden_ok and names the drift, a clean one says so.
func TestGoldenSection(t *testing.T) {
	rep := &Report{GoldenOK: true, Sweep: []Result{newResult("a", core.SGXDiE, "fast", 0, 1, sample{cycles: 100})}}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := writeGolden(path, rep, 4); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	b := &bencher{o: Options{Quick: true, Golden: path, CheckGolden: true, Threads: 4}, out: &log, rep: rep}
	if err := b.golden(); err != nil || !rep.GoldenOK || !strings.Contains(log.String(), "no drift") {
		t.Fatalf("clean check: err=%v golden_ok=%v log=%q", err, rep.GoldenOK, log.String())
	}
	for i := 0; i < 30; i++ { // more drift lines than the section prints
		rep.Sweep = append(rep.Sweep, newResult(strings.Repeat("n", i+1), core.SGXDiE, "fast", 0, 1, sample{}))
	}
	log.Reset()
	if err := b.golden(); err != nil || rep.GoldenOK {
		t.Fatalf("drifted check: err=%v golden_ok=%v", err, rep.GoldenOK)
	}
	if got := strings.Count(log.String(), "DRIFT: "); got != 25 || !strings.Contains(log.String(), "and 5 more drift lines (30 total)") {
		t.Errorf("drifted check printed %d DRIFT lines:\n%s", got, log.String())
	}
}

// tinySizes shrinks the host-bound dimensions of the quick suite. The
// spill, planner and pipeline sizes stay at quick scale: the nine gates
// are claims about those regimes, and the run below asserts all of them.
var tinySizes = func() sizes {
	z := quickSizes
	z.seqBytes, z.gatherArr, z.scanBytes, z.gatherIDs, z.gatherOps = 1<<20, 1<<20, 1<<18, 1<<13, 1<<12
	z.rhoScale = 512
	return z
}()

// TestRunTiny drives the whole suite in-process: all nine gates hold,
// the report has the v3 schema's key set, and the golden snapshot the
// run wrote matches the run.
func TestRunTiny(t *testing.T) {
	dir := t.TempDir()
	o := Options{Quick: true, Out: filepath.Join(dir, "bench.json"), Threads: 4,
		Golden: filepath.Join(dir, "golden.json"), UpdateGolden: true}
	var log strings.Builder
	rep, err := run(o, tinySizes, &log)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range okFlags {
		if !*rep.flag(k) {
			t.Errorf("%s is false\n%s", k, log.String())
		}
	}
	if !rep.OK() || !rep.TargetsMet {
		t.Errorf("OK() = %v, targets_met = %v", rep.OK(), rep.TargetsMet)
	}
	if drift := compareGolden(o.Golden, rep, o.Threads); len(drift) != 0 {
		t.Errorf("the snapshot this run wrote drifts from it: %q", drift)
	}
	if n := len(rep.TargetNotes); n != 23 {
		t.Errorf("%d target notes, want 23: %q", n, rep.TargetNotes)
	}
	if len(rep.Sweep) != 195 || len(rep.Speedup) != 2*len(workloads) || len(rep.Serve) != 39 {
		t.Errorf("report has %d sweep / %d speedup / %d serve entries, want 195 / %d / 39",
			len(rep.Sweep), len(rep.Speedup), len(rep.Serve), 2*len(workloads))
	}

	raw, err := os.ReadFile(o.Out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	want := append([]string{"schema", "timestamp", "go_version", "num_cpu", "quick", "sweep", "serve",
		"speedup", "speedups", "targets_met", "target_notes"}, okFlags...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report keys = %v, want the v3 schema %v", got, want)
	}
}
