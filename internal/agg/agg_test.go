package agg

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
)

func testEnv() *core.Env {
	return core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(256), Setting: core.PlainCPU})
}

// TestSegmentsEquivalent checks that aggregating one table split into
// several input segments produces the same aggregates as the oracle over
// the concatenation (the join-output consumption path of the pipelines).
func TestSegmentsEquivalent(t *testing.T) {
	env := testEnv()
	a := genTuples(env, 5000, 300, false, 5)
	b := genTuples(env, 3777, 300, true, 6)
	ins := []Input{{Tup: a, N: 5000}, {Tup: b, N: 3777}}
	res := Run(env, ins, Options{Threads: 2, Sel: ByKey, Groups: 300})
	want := Reference(ins, ByKey)
	if res.Groups != len(want) {
		t.Fatalf("groups=%d oracle=%d", res.Groups, len(want))
	}
	if res.Rows != 8777 {
		t.Fatalf("rows=%d want 8777", res.Rows)
	}
	verifyAgainstOracle(t, "segments", res, want)
}

// TestByPayload checks the payload-side selector (the join-output shape:
// group on the build payload, aggregate the probe payload).
func TestByPayload(t *testing.T) {
	env := testEnv()
	tup := env.Space.AllocU64("in", 1000, env.DataRegion())
	for i := range tup.D {
		tup.D[i] = mem.MakeTuple(uint32(i), uint32(i%7))
	}
	res := Run(env, []Input{{Tup: tup, N: 1000}}, Options{Threads: 2, Sel: ByPayload, Groups: 7})
	if res.Groups != 7 {
		t.Fatalf("groups=%d want 7", res.Groups)
	}
	verifyAgainstOracle(t, "bypayload", res, Reference([]Input{{Tup: tup, N: 1000}}, ByPayload))
}

// TestPartBitsOverride checks correctness across the partition counts
// the Groups hint selects (RunOn's partition bits): the minimum of two
// partitions, and — with the hint at the row count — more partitions
// than groups.
func TestPartBitsOverride(t *testing.T) {
	const n = 1 << 16
	env := testEnv()
	tup := genTuples(env, n, 99, false, 9)
	ins := []Input{{Tup: tup, N: n}}
	want := Reference(ins, ByKey)
	for _, tc := range []struct{ groups, parts int }{{1, 2}, {99, 2}, {0, 512}, {n, 512}} {
		res := Run(env, ins, Options{Threads: 3, Sel: ByKey, Groups: tc.groups})
		if got := len(res.PartGroups); got != tc.parts {
			t.Errorf("groups hint %d: %d partitions, want %d", tc.groups, got, tc.parts)
		}
		if res.Groups != len(want) {
			t.Errorf("groups hint %d: groups=%d oracle=%d", tc.groups, res.Groups, len(want))
		}
		verifyAgainstOracle(t, "partbits", res, want)
	}
}

// TestEmptyAndTiny covers the degenerate inputs a pipeline can produce
// (a filter that selects nothing, or a single row).
func TestEmptyAndTiny(t *testing.T) {
	env := testEnv()
	tup := env.Space.AllocU64("in", 8, env.DataRegion())
	tup.D[0] = mem.MakeTuple(42, 7)
	res := Run(env, []Input{{Tup: tup, N: 0}}, Options{Threads: 2})
	if res.Groups != 0 || res.Rows != 0 {
		t.Fatalf("empty: groups=%d rows=%d", res.Groups, res.Rows)
	}
	res = Run(env, []Input{{Tup: tup, N: 1}}, Options{Threads: 2})
	if res.Groups != 1 {
		t.Fatalf("tiny: groups=%d want 1", res.Groups)
	}
	res.ForEach(func(key uint32, count, sum uint64, mn, mx uint32) {
		if key != 42 || count != 1 || sum != 7 || mn != 7 || mx != 7 {
			t.Fatalf("tiny: entry (%d,%d,%d,%d,%d)", key, count, sum, mn, mx)
		}
	})
}

// TestPreallocatedBuffers checks that repeated runs over pre-allocated
// Out/Parts buffers (the benchmark reuse pattern) are reproducible.
func TestPreallocatedBuffers(t *testing.T) {
	env := testEnv()
	tup := genTuples(env, 6000, 150, false, 3)
	opt := Options{
		Threads: 2, Sel: ByKey, Groups: 150,
		Out:   env.Space.AllocU64("agg.out", EntryWords*6000, env.DataRegion()),
		Parts: env.Space.AllocU64("agg.parts", 6000, env.DataRegion()),
	}
	first := Run(env, []Input{{Tup: tup, N: 6000}}, opt)
	for rep := 0; rep < 2; rep++ {
		res := Run(env, []Input{{Tup: tup, N: 6000}}, opt)
		if res.Check != first.Check || res.Groups != first.Groups {
			t.Fatalf("rep %d: check=%#x groups=%d, first check=%#x groups=%d",
				rep, res.Check, res.Groups, first.Check, first.Groups)
		}
	}
}
