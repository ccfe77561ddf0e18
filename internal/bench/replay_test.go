package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxbench/internal/core"
)

// readGolden reads the committed BENCH_GOLDEN.json.
func readGolden(t *testing.T) goldenFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_GOLDEN.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRegistryOrder: entries() lists the golden entries in the golden
// file's order, so a suite run walking it writes the snapshot unchanged.
// It runs nothing.
func TestRegistryOrder(t *testing.T) {
	g, es := readGolden(t), entries()
	if len(es) != len(g.Entries) {
		t.Fatalf("registry lists %d entries, golden %d", len(es), len(g.Entries))
	}
	for i, e := range es {
		if w := g.Entries[i]; e.Workload != w.Workload || e.Setting.String() != w.Setting {
			t.Fatalf("entry %d is %s/%s, golden has %s/%s", i, e.Workload, e.Setting, w.Workload, w.Setting)
		}
	}
}

// TestReplayMatchesGolden replays every entry of BENCH_GOLDEN.json
// through Lookup and Replay: each must reproduce its golden sim_cycles,
// check and stats exactly, the registry must pin no entry the golden
// file lacks, and a serving replay's trace and metrics must keep the
// whole run.
func TestReplayMatchesGolden(t *testing.T) {
	g := readGolden(t)
	if g.Threads != goldenThreads || len(g.Entries) != 195 {
		t.Fatalf("golden has %d entries at -threads %d, want 195 at %d", len(g.Entries), g.Threads, goldenThreads)
	}
	byName := map[string]core.Setting{}
	for _, s := range settings {
		byName[s.String()] = s
	}
	for _, want := range g.Entries {
		e, err := Lookup(want.Workload, byName[want.Setting])
		if err != nil {
			t.Errorf("%s/%s: %v", want.Workload, want.Setting, err)
			continue
		}
		got, err := e.Replay()
		if err != nil {
			t.Errorf("%s/%s: %v", want.Workload, want.Setting, err)
			continue
		}
		if got.Result != want {
			t.Errorf("%s/%s: replay %+v, golden %+v", want.Workload, want.Setting, got.Result, want)
		}
		if e.Profiled != (got.Profiler != nil) || e.Traced != (got.Serve != nil && got.Serve.Config.Trace != nil) {
			t.Errorf("%s/%s: Profiled=%v Traced=%v, but the replay returned profiler %v, serve result %v",
				want.Workload, want.Setting, e.Profiled, e.Traced, got.Profiler != nil, got.Serve != nil)
		}
		if cfg := got.Serve; e.Traced && cfg != nil && (cfg.Config.Trace.Dropped() != 0 || cfg.Config.Metrics.Dropped() != 0) {
			t.Errorf("%s/%s: replay dropped %d spans and %d metric samples", want.Workload, want.Setting,
				cfg.Config.Trace.Dropped(), cfg.Config.Metrics.Dropped())
		}
	}
}

// TestLookupRejects: a name golden does not pin, or pins under other
// settings only, is an error before anything runs.
func TestLookupRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		s    core.Setting
		want []string
	}{
		{"spill.agg@2x", core.PlainCPU, []string{`no entry "spill.agg@2x" under Plain CPU`}},
		{"fault.crash.admit", core.SGXDoE, []string{`no entry "fault.crash.admit" under SGX DoE`}},
		{"plan.s03.j0.sel902.u.agg@epc8", core.SGXDiE, []string{`no entry "plan.s03.j0.sel902.u.agg@epc8"`}},
		{"seq.stream", core.SGXDiE, []string{"no entry", "scan.*", "micro.*", "join.*", "q2s.*", "spill.*", "plan.*", "serve.*", "fault.*", "scale.*"}},
	} {
		_, err := Lookup(c.name, c.s)
		for _, w := range c.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("Lookup(%s, %s) = %v, want an error containing %q", c.name, c.s, err, w)
			}
		}
	}
}
