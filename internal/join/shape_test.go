package join

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
)

// runThroughput runs one algorithm at the Fig 3 workload (100 MB + 400 MB
// tables, scaled) and returns throughput in rows/s.
func runThroughput(t *testing.T, alg Algorithm, setting core.Setting, threads int, optimized bool, scale int64) float64 {
	t.Helper()
	plat := platform.XeonGold6326().Scaled(scale)
	env := core.NewEnv(core.Options{Plat: plat, Setting: setting})
	nR := rel.RowsForMB(100) / int(scale)
	nS := rel.RowsForMB(400) / int(scale)
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
	res, err := alg.Run(env, build, probe, Options{Threads: threads, Optimized: optimized})
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	if res.Matches == 0 {
		t.Fatalf("%s: no matches", alg.Name())
	}
	return res.Throughput(env, nR, nS)
}

// TestShapeFig3 encodes the Fig 3 shape: every join is slower in the
// enclave; the hash joins are hit hardest; CrkJoin is slowest overall
// with every other algorithm at least 2x faster in-enclave.
func TestShapeFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test is slow")
	}
	t.Parallel()
	const scale = 128
	const threads = 16
	type row struct {
		name        string
		plain, die  float64
		dieOverhead float64
	}
	algs := All()
	rows := make([]row, len(algs))
	t.Run("runs", func(t *testing.T) {
		for i, alg := range algs {
			t.Run(alg.Name(), func(t *testing.T) {
				t.Parallel()
				plain := runThroughput(t, alg, core.PlainCPU, threads, false, scale)
				die := runThroughput(t, alg, core.SGXDiE, threads, false, scale)
				rows[i] = row{alg.Name(), plain, die, plain / die}
				t.Logf("%-8s plain=%8.1f M rows/s  DiE=%8.1f M rows/s  slowdown=%.2fx",
					alg.Name(), plain/1e6, die/1e6, plain/die)
			})
		}
	})
	if t.Failed() {
		return
	}
	get := func(name string) row {
		for _, r := range rows {
			if r.name == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return row{}
	}
	// Every join slower inside the enclave.
	for _, r := range rows {
		if r.die >= r.plain {
			t.Errorf("%s: DiE (%.0f) should be slower than plain (%.0f)", r.name, r.die, r.plain)
		}
	}
	// CrkJoin slowest in-enclave; every other algorithm clearly faster
	// (the paper's Fig 3 reports 3–12x; the simulator compresses the
	// PHT/INL gap — README "Fig 3: the in-enclave gap to CrkJoin" — but
	// the ordering must hold).
	crk := get("CrkJoin")
	for _, r := range rows {
		if r.name == "CrkJoin" {
			continue
		}
		if r.die < 1.3*crk.die {
			t.Errorf("%s DiE (%.0f M/s) should be >= 1.3x CrkJoin (%.0f M/s)", r.name, r.die/1e6, crk.die/1e6)
		}
	}
	rho := get("RHO")
	if rho.die < 5*crk.die {
		t.Errorf("RHO DiE (%.0f M/s) should be >= 5x CrkJoin DiE (%.0f M/s) (paper: 12x)", rho.die/1e6, crk.die/1e6)
	}
	// RHO is the fastest plain-CPU join.
	for _, r := range rows {
		if r.name != "RHO" && r.plain > rho.plain {
			t.Errorf("RHO should be fastest plain join, but %s (%.0f) > RHO (%.0f)", r.name, r.plain, rho.plain)
		}
	}
	// Hash joins suffer larger relative slowdowns than the non-hash
	// algorithms MWAY and CrkJoin ("The hash joins have the highest
	// slowdowns", Fig 3); PHT, whose build is unpartitioned, is hit
	// hardest of all.
	for _, h := range []string{"PHT", "RHO"} {
		for _, o := range []string{"MWAY", "CrkJoin"} {
			if get(h).dieOverhead <= get(o).dieOverhead {
				t.Errorf("%s slowdown (%.2fx) should exceed %s slowdown (%.2fx)",
					h, get(h).dieOverhead, o, get(o).dieOverhead)
			}
		}
	}
	if get("PHT").dieOverhead < 2 || get("PHT").dieOverhead > 6 {
		t.Errorf("PHT slowdown %.2fx outside [2, 6]", get("PHT").dieOverhead)
	}
}

// TestShapeFig1 encodes the Fig 1 headline: CrkJoin-in-enclave is an
// order of magnitude slower than RHO-in-enclave, and the optimized RHO
// in the enclave comes within ~15% of optimized plain-CPU RHO.
func TestShapeFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test is slow")
	}
	t.Parallel()
	const scale = 128
	const threads = 16
	crkDie := runThroughput(t, NewCrk(), core.SGXDiE, threads, false, scale)
	rhoDie := runThroughput(t, NewRHO(), core.SGXDiE, threads, false, scale)
	rhoDieO := runThroughput(t, NewRHO(), core.SGXDiE, threads, true, scale)
	rhoPlainO := runThroughput(t, NewRHO(), core.PlainCPU, threads, true, scale)
	t.Logf("CrkJoin DiE=%.1f  RHO DiE=%.1f  RHO+O DiE=%.1f  RHO+O plain=%.1f (M rows/s)",
		crkDie/1e6, rhoDie/1e6, rhoDieO/1e6, rhoPlainO/1e6)
	if rhoDie < 3*crkDie {
		t.Errorf("RHO DiE (%.0f) should be >= 3x CrkJoin DiE (%.0f)", rhoDie/1e6, crkDie/1e6)
	}
	if rhoDieO <= rhoDie {
		t.Errorf("optimization should improve RHO DiE (%.0f -> %.0f)", rhoDie/1e6, rhoDieO/1e6)
	}
	if rhoDieO < 0.75*rhoPlainO {
		t.Errorf("optimized RHO DiE (%.0f) should reach >=75%% of plain (%.0f)", rhoDieO/1e6, rhoPlainO/1e6)
	}
}
