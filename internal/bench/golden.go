package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
)

type goldenFile struct {
	Schema  string   `json:"schema"`
	Quick   bool     `json:"quick"`
	Threads int      `json:"threads"`
	Entries []Result `json:"entries"`
}

const goldenSchema = "sgxbench/bench_golden/v1"

// golden is the gate over the sweep entries. The simulation is fully
// deterministic, so CI gates on *exact* simulated numbers: -check-golden
// compares a -quick run against the committed BENCH_GOLDEN.json and any
// drift in simulated cycles, checks or statistics fails the run;
// -update-golden rewrites the snapshot after a change that is
// *supposed* to move simulated numbers.
func (b *bencher) golden() error {
	switch {
	case b.o.UpdateGolden:
		if err := writeGolden(b.o.Golden, b.rep, b.o.Threads); err != nil {
			return err
		}
		b.printf("== golden ==\n  wrote %s\n", b.o.Golden)
	case b.o.CheckGolden:
		drift := compareGolden(b.o.Golden, b.rep, b.o.Threads)
		b.printf("== golden ==\n")
		if len(drift) == 0 {
			b.printf("  %s: no drift\n", b.o.Golden)
			return nil
		}
		b.rep.GoldenOK = false
		for i, d := range drift {
			if i == 25 {
				b.printf("  ... and %d more drift lines (%d total)\n", len(drift)-i, len(drift))
				break
			}
			b.printf("  DRIFT: %s\n", d)
		}
		b.printf("  (intentional change? refresh with: go run ./cmd/bench -quick -update-golden)\n")
	}
	return nil
}

func writeGolden(path string, rep *Report, threads int) error {
	return writeJSON(path, goldenFile{Schema: goldenSchema, Quick: true, Threads: threads, Entries: rep.Sweep})
}

// compareGolden diffs this run's sweep entries against the snapshot; it
// returns one message per drift (empty: gate passes).
func compareGolden(path string, rep *Report, threads int) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("cannot read %s: %v (first run? create it with -update-golden)", path, err)}
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return []string{fmt.Sprintf("cannot parse %s: %v", path, err)}
	}
	if g.Schema != goldenSchema {
		return []string{fmt.Sprintf("%s has schema %q, want %q (refresh with -update-golden)", path, g.Schema, goldenSchema)}
	}
	if g.Threads != threads {
		return []string{fmt.Sprintf("golden was recorded with -threads %d, this run used %d", g.Threads, threads)}
	}
	key := func(w, s string) string { return w + "|" + s }
	got := map[string]Result{}
	for _, e := range rep.Sweep {
		got[key(e.Workload, e.Setting)] = e
	}
	var drift []string
	seen := map[string]bool{}
	for _, want := range g.Entries {
		k := key(want.Workload, want.Setting)
		seen[k] = true
		cur, ok := got[k]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s/%s: in golden but missing from this run", want.Workload, want.Setting))
			continue
		}
		if cur.SimCycles != want.SimCycles {
			drift = append(drift, fmt.Sprintf("%s/%s: sim_cycles %d, golden %d", want.Workload, want.Setting, cur.SimCycles, want.SimCycles))
		}
		if cur.Check != want.Check {
			drift = append(drift, fmt.Sprintf("%s/%s: check %#x, golden %#x", want.Workload, want.Setting, cur.Check, want.Check))
		}
		if cur.Stats != want.Stats {
			// Name the drifted fields: "stats differ" on a 15-field struct
			// sends the reader diffing JSON by hand; the gate should say
			// which counter moved and by how much.
			gv, wv := reflect.ValueOf(cur.Stats), reflect.ValueOf(want.Stats)
			for i := 0; i < gv.NumField(); i++ {
				if gv.Field(i).Interface() != wv.Field(i).Interface() {
					drift = append(drift, fmt.Sprintf("%s/%s: stats.%s %v, golden %v",
						want.Workload, want.Setting, gv.Type().Field(i).Name,
						gv.Field(i).Interface(), wv.Field(i).Interface()))
				}
			}
		}
	}
	for k, e := range got {
		if !seen[k] {
			drift = append(drift, fmt.Sprintf("%s/%s: new deterministic workload not in golden (refresh with -update-golden)", e.Workload, e.Setting))
		}
	}
	sort.Strings(drift)
	return drift
}
