package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
)

// okFlags are the nine gates of the v4 report.
var okFlags = []string{
	"equivalence_ok", "golden_ok", "serve_collapse_ok", "hash_vs_sort_ok", "planner_ok",
	"spill_degradation_ok", "fault_degradation_ok", "shard_scaling_ok", "obs_percentiles_ok",
}

// testBencher is a bencher over the given measurements with every flag
// raised, as run() starts one.
func testBencher(vals map[string]float64) *bencher {
	rep := &Report{}
	for _, k := range okFlags {
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
		{name: "num alone", g: gate{flag: "serve_collapse_ok", note: "%.1f/%.1f", num: "a", cmp: ">=", want: 6}, note: "6.0/6.0"},
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

// producibleKeys is every measurement key a run produces — without
// running anything: sim_cycles for every golden entry, and the serving
// metrics for every serving one.
func producibleKeys() map[string]bool {
	keys := map[string]bool{}
	for _, e := range entries() {
		keys[key(e.Workload, e.Setting, simCycles)] = true
		for _, m := range []string{throughput, goodput, p99} {
			keys[key(e.Workload, e.Setting, m)] = e.Traced
		}
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
	flags := map[string]bool{}
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
			t.Errorf("gate %q: flag %q is not one of the nine *_ok report fields", g.note, g.flag)
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
	if len(gates) != 18 {
		t.Errorf("gate table has %d rows, want 18 (1 hash-vs-sort, 8 spill, 2 serve, 3 fault, 4 shard)", len(gates))
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
		return Result{name, core.SGXDiE.String(), cycles, 7, engine.Stats{Loads: 10, Stores: 4}}
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
	rep := &Report{GoldenOK: true, Sweep: []Result{{Workload: "a", Setting: core.SGXDiE.String(), SimCycles: 100}}}
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
		rep.Sweep = append(rep.Sweep, Result{Workload: strings.Repeat("n", i+1), Setting: core.SGXDiE.String()})
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

// TestRunTiny drives the whole suite in-process on two workers: all
// nine gates hold, the report has the v4 schema's key set, and the
// golden snapshot the run wrote matches the run.
func TestRunTiny(t *testing.T) {
	t.Parallel()
	rep, w := walk(t, tinySizes, 2)
	for _, k := range okFlags {
		if !*rep.flag(k) {
			t.Errorf("%s is false\n%s", k, w.log)
		}
	}
	if !rep.OK() {
		t.Errorf("OK() = false")
	}
	if n := len(rep.TargetNotes); n != 23 {
		t.Errorf("%d target notes, want 23: %q", n, rep.TargetNotes)
	}
	if len(rep.Sweep) != 195 || len(rep.Serve) != 39 {
		t.Errorf("report has %d sweep / %d serve entries, want 195 / 39", len(rep.Sweep), len(rep.Serve))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(w.report), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	want := append([]string{"schema", "timestamp", "go_version", "num_cpu", "quick", "sweep", "serve",
		"target_notes"}, okFlags...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report keys = %v, want the v4 schema %v", got, want)
	}
}

// microSizes shrinks every input of tinySizes further. The gates are
// not claims about this regime; TestWalkWorkersAgree reads only the
// log, the report and the snapshot.
var microSizes = func() sizes {
	z := tinySizes
	z.seqBytes, z.gatherArr, z.scanBytes, z.gatherIDs, z.gatherOps = 1<<18, 1<<18, 1<<16, 1<<11, 1<<10
	z.rhoScale = 2048
	z.qDim, z.qFact, z.qMaxRows, z.q3Fact = 1<<8, 1<<11, 1<<10, 1<<10
	z.spillJoinScale, z.spillAggN, z.spillAggGroups = 4096, 1<<12, 1<<9
	z.planDim, z.planFact = 64, 1<<10
	return z
}()

// TestWalkWorkersAgree walks the suite serially and on two workers, as
// parallel subtests, and compares the two runs' logs, reports and
// snapshots byte for byte, apart from the report's timestamp and the
// temporary paths: entries are recorded in registry order whatever the
// pool runs first.
func TestWalkWorkersAgree(t *testing.T) {
	var walks [3]walkOutput // by worker count
	t.Run("walks", func(t *testing.T) {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				t.Parallel()
				_, walks[workers] = walk(t, microSizes, workers)
			})
		}
	})
	serial, pooled := walks[1], walks[2]
	if t.Failed() || serial.log == "" || pooled.log == "" {
		return // a walk failed, or -run selected one
	}
	for _, c := range []struct{ what, a, b string }{
		{"log", serial.log, pooled.log}, {"report", serial.report, pooled.report}, {"snapshot", serial.golden, pooled.golden},
	} {
		if c.a != c.b {
			t.Errorf("the 2-worker %s differs from the serial one at %s", c.what, firstDiff(c.a, c.b))
		}
	}
}

// walkOutput is one suite run's output: its log with the run's directory
// replaced by DIR, its report with the timestamp blanked, and the golden
// snapshot it wrote.
type walkOutput struct{ log, report, golden string }

var timestampLine = regexp.MustCompile(`"timestamp": "[^"]*"`)

// firstDiff returns the first line where a and b differ, from each.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("the end: %d lines against %d", len(al), len(bl))
}

// walk runs the suite at z on the given number of workers, writing the
// report and a fresh golden snapshot, which must match the run and list
// the registry's entries in order.
func walk(t *testing.T, z sizes, workers int) (*Report, walkOutput) {
	t.Helper()
	dir := t.TempDir()
	o := Options{Quick: true, Out: filepath.Join(dir, "bench.json"), Threads: 4,
		Golden: filepath.Join(dir, "golden.json"), UpdateGolden: true}
	var log strings.Builder
	rep, err := run(o, z, workers, &log)
	if err != nil {
		t.Fatal(err)
	}
	if drift := compareGolden(o.Golden, rep, o.Threads); len(drift) != 0 {
		t.Errorf("the snapshot this run wrote drifts from it: %q", drift)
	}
	golden, err := os.ReadFile(o.Golden)
	var g goldenFile
	if err != nil || json.Unmarshal(golden, &g) != nil {
		t.Fatalf("cannot read back %s: %v", o.Golden, err)
	}
	for i, e := range entries() {
		if i >= len(g.Entries) || g.Entries[i].Workload != e.Workload || g.Entries[i].Setting != e.Setting.String() {
			t.Fatalf("snapshot entry %d is not the registry's %s/%s", i, e.Workload, e.Setting)
		}
	}
	report, err := os.ReadFile(o.Out)
	if err != nil {
		t.Fatal(err)
	}
	return rep, walkOutput{
		log:    strings.ReplaceAll(log.String(), dir, "DIR"),
		report: timestampLine.ReplaceAllString(string(report), `"timestamp": ""`),
		golden: string(golden),
	}
}

// TestEquivalenceFires: a workload whose reference-path run disagrees
// with its fast-path run clears equivalence_ok and is named in an
// EQUIVALENCE FAILURE line; an agreeing workload is not.
func TestEquivalenceFires(t *testing.T) {
	row := func(name string, refCheck uint64) workload {
		return workload{name: name, prep: func(c prepCtx) runner {
			return func() sample {
				if c.ref {
					return sample{cycles: 10, check: refCheck}
				}
				return sample{cycles: 10, check: 1}
			}
		}}
	}
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{row("fake.agree", 1), row("fake.diverge", 2)}
	var log strings.Builder
	b := testBencher(nil)
	b.out, b.z = &log, sizes{reps: 2}
	b.equivalence(1)
	if b.rep.Equivalent {
		t.Errorf("equivalence_ok still true after a diverging row:\n%s", log.String())
	}
	for _, want := range []string{"EQUIVALENCE FAILURE: fake.diverge rep 0 ", "EQUIVALENCE FAILURE: fake.diverge rep 1 "} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log does not contain %q:\n%s", want, log.String())
		}
	}
	if strings.Contains(log.String(), "FAILURE: fake.agree") {
		t.Errorf("the agreeing row was reported:\n%s", log.String())
	}
}

// TestEntryChecksFire: bencher.entry runs a twin entry's reference path
// under SGX DiE only and clears equivalence_ok when it disagrees, and
// flags repetitions whose check values diverge; Replay turns either
// failure into an error that names the flag and carries the log line.
func TestEntryChecksFire(t *testing.T) {
	fam := &family{}
	twin := func(s core.Setting) Entry {
		return Entry{Workload: "fake.twin", Setting: s, fam: fam, twin: true, check: func(*bencher, *Replayed) {},
			run: func(_ *bencher, c prepCtx) ([]sample, error) {
				if c.ref {
					return []sample{{cycles: 10, check: 2}}, nil
				}
				return []sample{{cycles: 10, check: 1}}, nil
			}}
	}
	reps := Entry{Workload: "fake.reps", Setting: core.PlainCPU, fam: fam, check: func(*bencher, *Replayed) {},
		run: func(*bencher, prepCtx) ([]sample, error) { return []sample{{check: 1}, {check: 1}, {check: 3}}, nil }}
	for _, tc := range []struct {
		e    Entry
		want string // "" : every check holds
	}{
		{twin(core.PlainCPU), ""},
		{twin(core.SGXDiE), "EQUIVALENCE FAILURE: fake.twin "},
		{reps, "CHECK DIVERGENCE: fake.reps/Plain CPU rep 2 check=3 vs 1"},
	} {
		var log strings.Builder
		b := testBencher(map[string]float64{})
		b.out = &log
		r, err := b.entry(&tc.e)
		if err != nil {
			t.Fatal(err)
		}
		if b.rep.Equivalent != (tc.want == "") || !strings.Contains(log.String(), tc.want) {
			t.Errorf("%s/%s: equivalence_ok=%v, log %q, want %q", tc.e.Workload, tc.e.Setting, b.rep.Equivalent, log.String(), tc.want)
		}
		if r.Check != 1 || len(b.rep.Sweep) != 1 {
			t.Errorf("%s/%s: recorded %+v (%d sweep entries), want the first fast-path repetition", tc.e.Workload, tc.e.Setting, r.Result, len(b.rep.Sweep))
		}
		_, err = tc.e.Replay()
		msg := fmt.Sprint(err)
		if (err == nil) != (tc.want == "") || err != nil && !(strings.Contains(msg, "equivalence_ok") && strings.Contains(msg, tc.want)) {
			t.Errorf("%s/%s: Replay error %v, want one naming equivalence_ok and %q", tc.e.Workload, tc.e.Setting, err, tc.want)
		}
	}
}
