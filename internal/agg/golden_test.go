package agg

import (
	"fmt"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// genTuples fills a fresh simulated relation with n tuples whose group
// keys are drawn from [1, groups] — uniformly, or skewed (~90% of rows
// land on a handful of hot groups) — and whose values are row-derived.
func genTuples(env *core.Env, n, groups int, skewed bool, seed uint64) *mem.U64Buf {
	tup := env.Space.AllocU64("in", n, env.DataRegion())
	r := rng.NewXorShift(rng.Mix(seed))
	hot := groups / 16
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < n; i++ {
		var k uint64
		if skewed && r.Uint64n(10) != 0 {
			k = r.Uint64n(uint64(hot))
		} else {
			k = r.Uint64n(uint64(groups))
		}
		tup.D[i] = mem.MakeTuple(uint32(k)+1, uint32(i)*2654435761)
	}
	return tup
}

// goldenRun executes one group-by under one setting on either engine
// path; the dataset is regenerated per run so both paths see identical
// simulated addresses.
func goldenRun(t *testing.T, setting core.Setting, ref bool, threads int, sel Sel, n, groups int, skewed bool) *Result {
	t.Helper()
	env := core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   setting,
		Reference: ref,
	})
	tup := genTuples(env, n, groups, skewed, 77)
	return Run(env, []Input{{Tup: tup, N: n}}, Options{Threads: threads, Sel: sel, Groups: groups})
}

func compareGolden(t *testing.T, label string, ref, fast *Result) {
	t.Helper()
	if ref.Groups != fast.Groups {
		t.Errorf("%s: groups ref=%d fast=%d", label, ref.Groups, fast.Groups)
	}
	if ref.Check != fast.Check {
		t.Errorf("%s: check ref=%#x fast=%#x", label, ref.Check, fast.Check)
	}
	if ref.WallCycles != fast.WallCycles {
		t.Errorf("%s: wall cycles ref=%d fast=%d", label, ref.WallCycles, fast.WallCycles)
	}
	if ref.Stats != fast.Stats {
		t.Errorf("%s: stats differ\nref:  %+v\nfast: %+v", label, ref.Stats, fast.Stats)
	}
}

// TestGoldenEquivalence enforces the fast-path invariant on the
// group-by: identical simulated results *and* statistics on both engine
// paths, under all four settings, both key selectors, single- and
// multi-threaded (threads own partitions round-robin, so multi-threaded
// timing is deterministic, unlike shared-table builds).
func TestGoldenEquivalence(t *testing.T) {
	settings := []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
	for _, setting := range settings {
		for _, sel := range []Sel{ByKey, ByPayload} {
			for _, threads := range []int{1, 3} {
				label := fmt.Sprintf("%s/sel=%d/threads=%d", setting, sel, threads)
				ref := goldenRun(t, setting, true, threads, sel, 20000, 700, false)
				fast := goldenRun(t, setting, false, threads, sel, 20000, 700, false)
				compareGolden(t, label, ref, fast)
			}
		}
	}
}

// TestGoldenDistributions runs the equivalence check over a randomized
// skewed and a uniform group-key distribution, and additionally checks
// both paths against the map oracle.
func TestGoldenDistributions(t *testing.T) {
	for _, skewed := range []bool{false, true} {
		for _, groups := range []int{1, 16, 2048} {
			label := fmt.Sprintf("skew=%v/groups=%d", skewed, groups)
			ref := goldenRun(t, core.SGXDiE, true, 2, ByKey, 15000, groups, skewed)
			fast := goldenRun(t, core.SGXDiE, false, 2, ByKey, 15000, groups, skewed)
			compareGolden(t, label, ref, fast)

			env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(256), Setting: core.PlainCPU})
			tup := genTuples(env, 15000, groups, skewed, 77)
			want := Reference([]Input{{Tup: tup, N: 15000}}, ByKey)
			if fast.Groups != len(want) {
				t.Errorf("%s: groups=%d oracle=%d", label, fast.Groups, len(want))
			}
			verifyAgainstOracle(t, label, fast, want)
		}
	}
}

// ForEach calls f for every emitted group in partition order (a test
// helper: the operators' callers read Result.Check and Out directly).
func (r *Result) ForEach(f func(key uint32, count, sum uint64, min, max uint32)) {
	for p, n := range r.PartGroups {
		for g := 0; g < n; g++ {
			e := (r.PartStart[p] + g) * EntryWords
			w0, w3 := r.Out.D[e], r.Out.D[e+3]
			f(uint32(w0), r.Out.D[e+1], r.Out.D[e+2], uint32(w3), uint32(w3>>32))
		}
	}
}

func verifyAgainstOracle(t *testing.T, label string, res *Result, want map[uint32]GroupAgg) {
	t.Helper()
	seen := 0
	res.ForEach(func(key uint32, count, sum uint64, mn, mx uint32) {
		seen++
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: unexpected group %d", label, key)
			return
		}
		if w.Count != count || w.Sum != sum || w.Min != mn || w.Max != mx {
			t.Errorf("%s: group %d got (%d,%d,%d,%d) want (%d,%d,%d,%d)",
				label, key, count, sum, mn, mx, w.Count, w.Sum, w.Min, w.Max)
		}
	})
	if seen != len(want) {
		t.Errorf("%s: emitted %d groups, oracle has %d", label, seen, len(want))
	}
}
