package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxbench/internal/core"
)

// TestReplayMatchesGolden replays every entry of BENCH_GOLDEN.json
// through Lookup and Replay: each must reproduce its golden sim_cycles,
// check and stats exactly, and the registry must pin no entry the
// golden file lacks.
func TestReplayMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_GOLDEN.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if g.Threads != goldenThreads || len(g.Entries) != 195 {
		t.Fatalf("golden has %d entries at -threads %d, want 195 at %d", len(g.Entries), g.Threads, goldenThreads)
	}
	if n := len(entries()); n != len(g.Entries) {
		t.Errorf("registry lists %d entries, golden %d", n, len(g.Entries))
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
