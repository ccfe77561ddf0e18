package plan

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/platform"
)

// TestQ4LimitBeyondScratch is the regression test for the top-k scratch
// sizing bug: Options.Limit larger than the pre-allocated per-thread
// heap capacity (sized for DefaultLimit) used to overrun the scratch
// heaps. The plan layer now grows the top-k scratch to the requested k;
// the emitted rows must match the oracle exactly.
func TestQ4LimitBeyondScratch(t *testing.T) {
	const k = 4 * DefaultLimit
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(256), Setting: core.PlainCPU})
	ds := GenDataset(env, pipeDim, pipeFact, 1234)
	// ~25% of 24000 rows survive the filter: more than k, so the heap
	// genuinely evicts at the grown capacity.
	q4 := mustPipeline(t, Q4Name)
	res := q4.Run(env, ds, Options{Threads: 2, Pred: pipePred, Limit: k})
	want := oracleQ4(ds, pipePred, k)
	if len(want) != k {
		t.Fatalf("oracle emitted %d rows, need > %d filtered rows for the test to bite", len(want), k)
	}
	if res.Groups != k || len(res.TopRows) != k {
		t.Fatalf("emitted %d/%d rows, want %d", res.Groups, len(res.TopRows), k)
	}
	for i, v := range want {
		if res.TopRows[i] != v {
			t.Fatalf("row %d = %#x, oracle %#x", i, res.TopRows[i], v)
		}
	}
	// The oversized run must stay deterministic across identically
	// prepared environments (the grown scratch allocates at stable
	// addresses).
	env2 := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(256), Setting: core.PlainCPU})
	ds2 := GenDataset(env2, pipeDim, pipeFact, 1234)
	res2 := q4.Run(env2, ds2, Options{Threads: 2, Pred: pipePred, Limit: k})
	if res2.Check != res.Check || res2.WallCycles != res.WallCycles {
		t.Fatalf("oversized-limit run not deterministic: check %#x/%#x wall %d/%d",
			res.Check, res2.Check, res.WallCycles, res2.WallCycles)
	}
}

// TestSuitePipelines covers the suite surface of the registry: the
// planner suite is runnable as pipelines resolvable by name alongside
// the fixed shapes.
func TestSuitePipelines(t *testing.T) {
	suite := Suite()
	if len(suite) != 20 {
		t.Fatalf("suite has %d queries, want 20", len(suite))
	}
	p, err := ByName("s09.j1.sel250.u.agg")
	if err != nil {
		t.Fatalf("suite query not resolvable: %v", err)
	}
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(256), Setting: core.SGXDiE})
	ds := GenDataset(env, pipeDim, pipeFact, 1234)
	res := p.Run(env, ds, Options{Threads: 2})
	if res.Pipeline != p.Name || res.Rows == 0 || res.Groups == 0 {
		t.Fatalf("suite pipeline run malformed: %+v", res)
	}
	if _, err := ByName("zz.unknown"); err == nil {
		t.Fatal("unknown pipeline name resolved")
	}
}
