package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "rep", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},   // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},  // runs past the parent: clipped
		{ID: 4, Parent: 1, Name: "a.1", Start: 10, End: 25}, // grandchild: only a's business
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 15, 30, 30, 15}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if sum := spanSum(spans, func(s span) bool { return s.Parent == 0 }); sum != 20+30+30 {
		t.Fatalf("spanSum of the rep's children = %d, want 80", sum)
	}
}

func TestTracerLaysPhasesOutBackToBack(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("call", noSpan)
	tr.end(root)
	tr.spans[root].End = tr.spans[root].Start + 100
	a := tr.child(root, "phase.a", 0, 40)
	b := tr.child(root, "phase.b", 40, 50)
	if tr.spans[b].Start != tr.spans[a].End || tr.spans[b].Parent != root || tr.spans[a].Workload != "w" {
		t.Fatalf("children not laid out in order under the call: %+v", tr.spans)
	}
	if self := selfTimes(tr.spans); self[root] != 10 {
		t.Fatalf("call self time = %d, want 10", self[root])
	}
	var none *tracer // the untraced reps' tracer
	if id := none.begin("x", noSpan); id != noSpan {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	none.end(noSpan)
}

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(xs)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if s.N != 10 || s.Min != 1 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Max != 10 {
		t.Fatalf("summarize = %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if xs[0] != 10 {
		t.Fatal("summarize reordered its input")
	}
	if m := fastest([]float64{3, 1, 2}); m != 1 {
		t.Fatalf("fastest = %v", m)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Fatalf("single sample: %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Fatalf("empty sample: %+v", s)
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}

	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("command %v / paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		check(w.Name, "", "")
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in the harness", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
	}
}

func TestJudge(t *testing.T) {
	noisy := metricDef{Name: "host_rep_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "host_sim_ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "sim_cycles", Better: "lower", Bound: 0.01, Exact: true}
	tight := func(v float64) measured {
		return measured{Value: v, Samples: &summary{N: 7, Min: v * 0.99, Q1: v * 0.995, Median: v, Q3: v * 1.005, Max: v * 1.01}}
	}
	wide := func(v float64) measured {
		return measured{Value: v, Samples: &summary{N: 7, Min: v * 0.7, Q1: v * 0.8, Median: v, Q3: v * 1.2, Max: v * 1.3}}
	}
	for _, c := range []struct {
		def  metricDef
		a, b measured
		want string
	}{
		{exact, measured{Value: 100}, measured{Value: 100}, verdictIdentical},
		{exact, measured{Value: 100}, measured{Value: 100.0001}, verdictWorse}, // inside the cross-seed bound, still a change
		{exact, measured{Value: 100}, measured{Value: 99}, verdictBetter},
		{noisy, tight(1), tight(1.05), verdictWithin},
		{noisy, tight(1), tight(1.2), verdictWorse},
		{noisy, tight(1), tight(0.8), verdictBetter},
		{higher, tight(100), tight(80), verdictWorse},
		{higher, tight(100), tight(125), verdictBetter},
		{noisy, wide(1), wide(1.05), verdictUnresolved},
		{noisy, wide(1), wide(2), verdictWorse}, // every run of b is slower than every run of a
		{noisy, measured{Value: 1}, measured{Value: 1}, verdictWithin},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.def.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestSmokeRun drives all four workloads through both modes at smoke
// sizes, with no time budget beyond the minimum rep counts.
func TestSmokeRun(t *testing.T) {
	dir := t.TempDir()
	var reports []workloadReport
	for _, d := range workloads {
		wr := workloadReport{Name: d.Name}
		if err := measureLayers(&wr, d, 1, 0, &smokeSizes, dir); err != nil {
			t.Fatal(err)
		}
		measureEndToEnd(&wr, d, 1, 0, &smokeSizes)
		wr.Correct = wr.Failed == 0
		reports = append(reports, wr)

		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", d.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, def := range endToEnd {
			if m, ok := wr.EndToEnd[def.Name]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != def.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", d.Name, def.Name, m)
			}
		}
		for _, def := range perLayer {
			if m, ok := wr.PerLayer[def.Name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != def.Unit {
				t.Errorf("%s: per-layer metric %s = %+v", d.Name, def.Name, m)
			}
		}
		// At these sizes the harness's own share is not small; it only
		// has to be a share.
		if f := wr.PerLayer["harness_self_frac"].Value; f < 0 || f > 1 {
			t.Errorf("%s: harness_self_frac = %v", d.Name, f)
		}
		raw, err := os.ReadFile(dir + "/trace." + d.Name + ".json")
		var spans []span
		if err == nil {
			err = json.Unmarshal(raw, &spans)
		}
		if err != nil || len(spans) == 0 || spans[0].Name != "rep" || spans[0].Workload != d.Name {
			t.Errorf("%s: trace file: %v, %d spans", d.Name, err, len(spans))
		}

		var out bytes.Buffer
		printReport(&out, &wr)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", d.Name, err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("%s: result line has keys %v", d.Name, last)
		}
	}

	// The same code compared with itself at one seed: nothing simulated
	// may differ.
	again := workloadReport{Name: workloads[0].Name}
	measureEndToEnd(&again, workloads[0], 1, 0, &smokeSizes)
	for _, def := range endToEnd {
		if def.Exact {
			if got := judge(def, reports[0].EndToEnd[def.Name], again.EndToEnd[def.Name]); got != verdictIdentical {
				t.Errorf("%s repeated at one seed: %s", def.Name, got)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "3"},
		{"-compare", "only-one.json"},
		{"-no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
