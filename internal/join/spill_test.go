package join

import (
	"sort"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
)

// spillEnv builds an Env with an EPC capacity limit (pages; 0 = unlimited).
func spillEnv(s core.Setting, ref bool, epcPages int64) *core.Env {
	return core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   s,
		Reference: ref,
		EPCPages:  epcPages,
	})
}

// epcHalf returns an EPC capacity of half the joined working set — a 2x
// oversubscription for the given input sizes.
func epcHalf(nR, nS int) int64 {
	return int64(nR+nS) * rel.TupleBytes / 4096 / 2
}

// TestGraceCorrectness checks the spill join against the reference count
// across sizes, thread counts, settings, and EPC capacities. The paging
// and spill-staging machinery may never influence values.
func TestGraceCorrectness(t *testing.T) {
	sizes := []struct{ nR, nS int }{
		{100, 400},
		{1000, 4000},
		{5000, 20000},
	}
	for _, sz := range sizes {
		for _, threads := range []int{1, 4} {
			for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
				for _, pages := range []int64{0, epcHalf(sz.nR, sz.nS)} {
					env := spillEnv(setting, false, pages)
					build, probe := rel.GenFKPair(env.Space, sz.nR, sz.nS, env.DataRegion(), 42)
					want := rel.ReferenceJoinCount(build, probe)
					res, err := NewGrace().Run(env, build, probe, Options{Threads: threads})
					if err != nil {
						t.Fatalf("GRACE: %v", err)
					}
					if res.Matches != want {
						t.Errorf("GRACE nR=%d nS=%d threads=%d %s epc=%d: matches=%d want %d",
							sz.nR, sz.nS, threads, setting, pages, res.Matches, want)
					}
					if res.WallCycles == 0 {
						t.Errorf("GRACE: zero wall cycles")
					}
				}
			}
		}
	}
}

// TestGraceOptimizedCorrectness checks the unroll+reorder variant under
// EPC pressure.
func TestGraceOptimizedCorrectness(t *testing.T) {
	env := spillEnv(core.SGXDiE, false, epcHalf(3000, 12000))
	build, probe := rel.GenFKPair(env.Space, 3000, 12000, env.DataRegion(), 7)
	want := rel.ReferenceJoinCount(build, probe)
	res, err := NewGrace().Run(env, build, probe, Options{Threads: 4, Optimized: true})
	if err != nil {
		t.Fatalf("GRACE: %v", err)
	}
	if res.Matches != want {
		t.Errorf("GRACE optimized: matches=%d want %d", res.Matches, want)
	}
}

// TestGraceMaterialization checks materialized outputs against the
// reference pairs (as multisets), with and without an EPC limit.
func TestGraceMaterialization(t *testing.T) {
	for _, pages := range []int64{0, epcHalf(500, 2000)} {
		env := spillEnv(core.SGXDiE, false, pages)
		build, probe := rel.GenFKPair(env.Space, 500, 2000, env.DataRegion(), 13)
		want := referenceJoinPairs(build, probe)
		res, err := NewGrace().Run(env, build, probe, Options{Threads: 4, Materialize: true})
		if err != nil {
			t.Fatalf("GRACE: %v", err)
		}
		var got []uint64
		for _, rows := range res.Output {
			got = append(got, rows...)
		}
		if len(got) != len(want) {
			t.Errorf("epc=%d: materialized %d rows, want %d", pages, len(got), len(want))
			continue
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("epc=%d: row %d = %x, want %x", pages, i, got[i], want[i])
				break
			}
		}
	}
}

// goldenGraceRun executes GRACE under one setting and EPC capacity on
// either engine path (the spill twin of goldenRun).
func goldenGraceRun(t *testing.T, setting core.Setting, ref bool, epcPages int64, opt Options) *Result {
	t.Helper()
	env := spillEnv(setting, ref, epcPages)
	nR := rel.RowsForMB(100) / 256
	nS := rel.RowsForMB(400) / 256
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 99)
	res, err := NewGrace().Run(env, build, probe, opt)
	if err != nil {
		t.Fatalf("GRACE: %v", err)
	}
	return res
}

// TestGoldenGraceEquivalence enforces the fast-path invariant on the
// spill join under every setting, with and without EPC pressure: wall
// cycles and full stats — including the fault, eviction and paging-cycle
// counters — must be bit-identical between the per-op reference engine
// and the batched fast engine. Only the DiE setting places data in the
// EPC, so only it may fault under the capacity limit.
func TestGoldenGraceEquivalence(t *testing.T) {
	nR := rel.RowsForMB(100) / 256
	nS := rel.RowsForMB(400) / 256
	for _, setting := range allSettings {
		for _, pages := range []int64{0, epcHalf(nR, nS)} {
			for _, optimized := range []bool{false, true} {
				label := setting.String() + "/GRACE/opt=" + boolStr(optimized)
				if pages > 0 {
					label += "/epc"
				}
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					opt := Options{Threads: 4, Optimized: optimized}
					ref := goldenGraceRun(t, setting, true, pages, opt)
					compareGolden(t, label, ref, goldenGraceRun(t, setting, false, pages, opt))
					wantFaults := pages > 0 && setting == core.SGXDiE
					if wantFaults && ref.Stats.EPCFaults == 0 {
						t.Errorf("%s: oversubscribed spill join did not fault", label)
					}
					if !wantFaults && ref.Stats.EPCFaults != 0 {
						t.Errorf("%s: unexpected faults %d", label, ref.Stats.EPCFaults)
					}
				})
			}
		}
	}
}

// TestGraceMultiThreadDeterminism: like the other partitioned joins,
// GRACE issues every access from the owning thread over pre-assigned
// ranges (cooperative first pass, round-robin refinement and chunk
// joins), so multi-threaded runs — including fault and eviction counts
// under EPC pressure — must repeat bit-identically.
func TestGraceMultiThreadDeterminism(t *testing.T) {
	run := func() (uint64, uint64, engine.Stats) {
		env := spillEnv(core.SGXDiE, false, epcHalf(2000, 8000))
		build, probe := rel.GenFKPair(env.Space, 2000, 8000, env.DataRegion(), 99)
		res, err := NewGrace().Run(env, build, probe, Options{Threads: 4, Optimized: true})
		if err != nil {
			t.Fatalf("GRACE: %v", err)
		}
		return res.Matches, res.WallCycles, res.Stats
	}
	m0, w0, s0 := run()
	for rep := 1; rep < 3; rep++ {
		m, w, s := run()
		if m != m0 || w != w0 || s != s0 {
			t.Fatalf("rep %d diverged: matches %d vs %d, wall %d vs %d\nstats0: %+v\nstats:  %+v",
				rep, m0, m, w0, w, s0, s)
		}
	}
}

// TestSpillDegradation is the unit-scale version of the bench gate: at 2x
// and 4x EPC oversubscription the spill join must stay under 3x slowdown
// against its fully-resident run, while the naive shared-table join (PHT)
// collapses by more than 10x. Graceful degradation is the point of the
// operator; this pins it against cost-model regressions.
func TestSpillDegradation(t *testing.T) {
	nR := rel.RowsForMB(100) / 512
	nS := rel.RowsForMB(400) / 512
	ws := int64(nR+nS) * rel.TupleBytes / 4096
	wall := func(alg Algorithm, pages int64) uint64 {
		env := spillEnv(core.SGXDiE, false, pages)
		build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 99)
		res, err := alg.Run(env, build, probe, Options{Threads: 4, Optimized: true})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		return res.WallCycles
	}
	graceBase := wall(NewGrace(), 0)
	phtBase := wall(NewPHT(), 0)
	for _, ratio := range []int64{2, 4} {
		pages := ws / ratio
		if g := float64(wall(NewGrace(), pages)) / float64(graceBase); g >= 3.0 {
			t.Errorf("GRACE at %dx oversubscription degraded %.2fx, want < 3x", ratio, g)
		}
		if p := float64(wall(NewPHT(), pages)) / float64(phtBase); p <= 10.0 {
			t.Errorf("PHT at %dx oversubscription degraded only %.2fx, want > 10x (naive collapse)", ratio, p)
		}
	}
}
