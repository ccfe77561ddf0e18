package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, one per (metric, workload).
const (
	verdictIdentical  = "identical"  // an exact (simulated) metric, bit for bit
	verdictWithin     = "within"     // moved by no more than the bound
	verdictBetter     = "better"     // improved by more than the bound
	verdictWorse      = "worse"      // worsened by more than the bound
	verdictUnresolved = "unresolved" // a side's own spread is wider than the bound
)

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// judge applies def's bound to a baseline a and a candidate b.
func judge(def metricDef, a, b measured) string {
	if a.Value == b.Value {
		if def.Exact {
			return verdictIdentical
		}
		return verdictWithin
	}
	// worsening > 0 means b is worse, as a share of a.
	worsening := (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		worsening = -worsening
	}
	bound := def.Bound
	if def.Exact {
		bound = 0 // same seed, same inputs: any difference is a change
	}
	// A side whose own spread exceeds the bound leaves the pair unresolved,
	// unless every sample of one side beats every sample of the other.
	as, bs := a.Samples, b.Samples
	disjoint := as != nil && bs != nil && (as.Max < bs.Min || bs.Max < as.Min)
	if !def.Exact && !disjoint {
		for _, sm := range []*summary{as, bs} {
			if sm != nil && sm.spread() > bound {
				return verdictUnresolved
			}
		}
	}
	switch {
	case worsening > bound:
		return verdictWorse
	case worsening < -bound:
		return verdictBetter
	}
	return verdictWithin
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// -out files, every ratio beside its base, and returns 1 when any row is
// worse (or the files cannot be compared).
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if a.Seed != b.Seed || a.Smoke != b.Smoke {
		fmt.Fprintf(stderr, "benchmark: runs differ in seed (%d, %d) or sizes: exact metrics cannot be compared\n", a.Seed, b.Seed)
		return 2
	}
	other := map[string]workloadReport{}
	for _, w := range b.Workloads {
		other[w.Name] = w
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-24s %16s %16s %9s %7s  %s\n", "workload", "metric", "base (a)", "b", "b/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			verdict := judge(def, ma, mb)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-24s %16.6g %16.6g %9.4f %7.2f  %s\n",
				wa.Name, def.Name, ma.Value, mb.Value, mb.Value/ma.Value, def.Bound, verdict)
		}
		if wa.OpsPerRep != wb.OpsPerRep || wa.Failed+wb.Failed > 0 {
			code = 1
			fmt.Fprintf(stdout, "%-12s ops_per_rep %d vs %d, failed operations %d vs %d  %s\n",
				wa.Name, wa.OpsPerRep, wb.OpsPerRep, wa.Failed, wb.Failed, verdictWorse)
		}
	}
	return code
}
