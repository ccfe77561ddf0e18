package agg

import (
	"fmt"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/platform"
)

// spillTestEnv builds an Env with an EPC capacity limit (pages; 0 =
// unlimited).
func spillTestEnv(s core.Setting, ref bool, epcPages int64) *core.Env {
	return core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   s,
		Reference: ref,
		EPCPages:  epcPages,
	})
}

// aggEPCHalf returns an EPC capacity of half the input working set — a
// 2x oversubscription for n tuples.
func aggEPCHalf(n int) int64 { return int64(n) * 8 / 4096 / 2 }

// TestSpillCorrectness checks the spill group-by against the map oracle
// across distributions, thread counts, settings and EPC capacities; the
// paging and staging machinery may never influence values.
func TestSpillCorrectness(t *testing.T) {
	for _, skewed := range []bool{false, true} {
		for _, groups := range []int{1, 16, 700, 2048} {
			for _, threads := range []int{1, 3} {
				for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
					for _, pages := range []int64{0, aggEPCHalf(15000)} {
						env := spillTestEnv(setting, false, pages)
						tup := genTuples(env, 15000, groups, skewed, 77)
						ins := []Input{{Tup: tup, N: 15000}}
						res := SpillRun(env, ins, Options{Threads: threads, Sel: ByKey, Groups: groups})
						want := Reference(ins, ByKey)
						label := fmt.Sprintf("spill skew=%v groups=%d threads=%d %s epc=%d",
							skewed, groups, threads, setting, pages)
						if res.Groups != len(want) {
							t.Errorf("%s: groups=%d oracle=%d", label, res.Groups, len(want))
						}
						verifyAgainstOracle(t, label, res, want)
					}
				}
			}
		}
	}
}

// TestSpillSegments checks the spill group-by over multiple input
// segments (the join-output consumption path of the spill pipelines),
// including the drained (EPC-limited) route where segments are staged
// into one contiguous untrusted run.
func TestSpillSegments(t *testing.T) {
	for _, pages := range []int64{0, aggEPCHalf(8777)} {
		env := spillTestEnv(core.SGXDiE, false, pages)
		a := genTuples(env, 5000, 300, false, 5)
		b := genTuples(env, 3777, 300, true, 6)
		ins := []Input{{Tup: a, N: 5000}, {Tup: b, N: 3777}}
		res := SpillRun(env, ins, Options{Threads: 2, Sel: ByKey, Groups: 300})
		want := Reference(ins, ByKey)
		if res.Groups != len(want) {
			t.Fatalf("epc=%d: groups=%d oracle=%d", pages, res.Groups, len(want))
		}
		verifyAgainstOracle(t, fmt.Sprintf("spill segments epc=%d", pages), res, want)
	}
}

// TestDirectCorrectness checks the naive single-table baseline against
// the map oracle, with and without an EPC limit.
func TestDirectCorrectness(t *testing.T) {
	for _, pages := range []int64{0, aggEPCHalf(12000)} {
		env := spillTestEnv(core.SGXDiE, false, pages)
		a := genTuples(env, 9000, 500, false, 11)
		b := genTuples(env, 3000, 500, true, 12)
		ins := []Input{{Tup: a, N: 9000}, {Tup: b, N: 3000}}
		res := DirectRun(env, ins, Options{Sel: ByKey, Groups: 500})
		want := Reference(ins, ByKey)
		if res.Groups != len(want) {
			t.Fatalf("epc=%d: groups=%d oracle=%d", pages, res.Groups, len(want))
		}
		verifyAgainstOracle(t, fmt.Sprintf("direct epc=%d", pages), res, want)
	}
}

// goldenSpillRun executes the spill group-by under one setting and EPC
// capacity on either engine path.
func goldenSpillRun(t *testing.T, setting core.Setting, ref bool, epcPages int64, threads int, sel Sel) *Result {
	t.Helper()
	env := spillTestEnv(setting, ref, epcPages)
	tup := genTuples(env, 20000, 700, false, 77)
	return SpillRun(env, []Input{{Tup: tup, N: 20000}}, Options{Threads: threads, Sel: sel, Groups: 700})
}

// TestGoldenSpillEquivalence enforces the fast-path invariant on the
// spill group-by under every setting, with and without EPC pressure:
// results, wall cycles and full stats — including the fault, eviction
// and paging-cycle counters — must be bit-identical between the per-op
// reference engine and the batched fast engine.
func TestGoldenSpillEquivalence(t *testing.T) {
	settings := []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
	for _, setting := range settings {
		for _, pages := range []int64{0, aggEPCHalf(20000)} {
			for _, threads := range []int{1, 3} {
				label := fmt.Sprintf("%s/spill/threads=%d/epc=%d", setting, threads, pages)
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					ref := goldenSpillRun(t, setting, true, pages, threads, ByKey)
					compareGolden(t, label, ref, goldenSpillRun(t, setting, false, pages, threads, ByKey))
					wantFaults := pages > 0 && setting == core.SGXDiE
					if wantFaults && ref.Stats.EPCFaults == 0 {
						t.Errorf("%s: oversubscribed spill group-by did not fault", label)
					}
					if !wantFaults && ref.Stats.EPCFaults != 0 {
						t.Errorf("%s: unexpected faults %d", label, ref.Stats.EPCFaults)
					}
				})
			}
		}
	}
}

// TestGoldenDirectEquivalence enforces the fast-path invariant on the
// naive baseline under EPC pressure (where it pages heavily — exactly
// the regime the degradation gate exercises it in).
func TestGoldenDirectEquivalence(t *testing.T) {
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		for _, pages := range []int64{0, aggEPCHalf(12000)} {
			run := func(ref bool) *Result {
				env := spillTestEnv(setting, ref, pages)
				tup := genTuples(env, 12000, 400, false, 77)
				return DirectRun(env, []Input{{Tup: tup, N: 12000}}, Options{Sel: ByKey, Groups: 400})
			}
			label := fmt.Sprintf("%s/direct/epc=%d", setting, pages)
			compareGolden(t, label, run(true), run(false))
		}
	}
}

// TestSpillMultiThreadDeterminism: the spill group-by issues every
// access from the owning thread over pre-assigned ranges, so
// multi-threaded runs — including fault and eviction counts under EPC
// pressure — must repeat bit-identically.
func TestSpillMultiThreadDeterminism(t *testing.T) {
	run := func() (uint64, uint64, engine.Stats) {
		env := spillTestEnv(core.SGXDiE, false, aggEPCHalf(15000))
		tup := genTuples(env, 15000, 700, false, 99)
		res := SpillRun(env, []Input{{Tup: tup, N: 15000}}, Options{Threads: 4, Sel: ByKey, Groups: 700})
		return res.Check, res.WallCycles, res.Stats
	}
	c0, w0, s0 := run()
	for rep := 1; rep < 3; rep++ {
		c, w, s := run()
		if c != c0 || w != w0 || s != s0 {
			t.Fatalf("rep %d diverged: check %#x vs %#x, wall %d vs %d\nstats0: %+v\nstats:  %+v",
				rep, c0, c, w0, w, s0, s)
		}
	}
}

// TestAggSpillDegradation is the unit-scale group-by half of the bench
// gate: at 2x and 4x EPC oversubscription the spill group-by must stay
// under 3x slowdown against its fully-resident run, while the naive
// single-table baseline collapses by more than 10x.
func TestAggSpillDegradation(t *testing.T) {
	const n = 1 << 17
	const groups = 1 << 14
	ws := int64(n) * 8 / 4096
	wall := func(spill bool, pages int64) uint64 {
		env := spillTestEnv(core.SGXDiE, false, pages)
		tup := genTuples(env, n, groups, false, 99)
		ins := []Input{{Tup: tup, N: n}}
		opt := Options{Threads: 4, Sel: ByKey, Groups: groups}
		if spill {
			return SpillRun(env, ins, opt).WallCycles
		}
		return DirectRun(env, ins, opt).WallCycles
	}
	spillBase := wall(true, 0)
	directBase := wall(false, 0)
	for _, ratio := range []int64{2, 4} {
		pages := ws / ratio
		if g := float64(wall(true, pages)) / float64(spillBase); g >= 3.0 {
			t.Errorf("spill group-by at %dx oversubscription degraded %.2fx, want < 3x", ratio, g)
		}
		if d := float64(wall(false, pages)) / float64(directBase); d <= 10.0 {
			t.Errorf("direct group-by at %dx oversubscription degraded only %.2fx, want > 10x (naive collapse)", ratio, d)
		}
	}
}
