package join

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
)

// goldenRun executes one join under one setting on either engine path.
func goldenRun(t *testing.T, alg Algorithm, setting core.Setting, ref bool, opt Options) *Result {
	t.Helper()
	env := core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   setting,
		Reference: ref,
	})
	nR := rel.RowsForMB(100) / 256
	nS := rel.RowsForMB(400) / 256
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 99)
	res, err := alg.Run(env, build, probe, opt)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res
}

func compareGolden(t *testing.T, label string, ref, fast *Result) {
	t.Helper()
	if ref.Matches != fast.Matches {
		t.Errorf("%s: matches ref=%d fast=%d", label, ref.Matches, fast.Matches)
	}
	if ref.WallCycles != fast.WallCycles {
		t.Errorf("%s: wall cycles ref=%d fast=%d", label, ref.WallCycles, fast.WallCycles)
	}
	if ref.Stats != fast.Stats {
		t.Errorf("%s: stats differ\nref:  %+v\nfast: %+v", label, ref.Stats, fast.Stats)
	}
	if len(ref.Output) != len(fast.Output) {
		t.Errorf("%s: output shape differs", label)
		return
	}
	for i := range ref.Output {
		if len(ref.Output[i]) != len(fast.Output[i]) {
			t.Errorf("%s: output[%d] length ref=%d fast=%d", label, i, len(ref.Output[i]), len(fast.Output[i]))
			continue
		}
		for j := range ref.Output[i] {
			if ref.Output[i][j] != fast.Output[i][j] {
				t.Fatalf("%s: output[%d][%d] ref=%x fast=%x", label, i, j, ref.Output[i][j], fast.Output[i][j])
			}
		}
	}
}

// allSettings is every execution setting, the matrices' outer axis.
var allSettings = []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}

// equivalenceMatrix runs alg at 4 threads under every setting, scalar and
// optimized, on both engine paths, one parallel subtest per cell.
func equivalenceMatrix(t *testing.T, alg Algorithm) {
	for _, setting := range allSettings {
		for _, optimized := range []bool{false, true} {
			label := setting.String() + "/" + alg.Name() + "/opt=" + boolStr(optimized)
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				opt := Options{Threads: 4, Optimized: optimized}
				compareGolden(t, label, goldenRun(t, alg, setting, true, opt), goldenRun(t, alg, setting, false, opt))
			})
		}
	}
}

// TestGoldenRHOEquivalence enforces the fast-path invariant on RHO under
// every setting, in both the scalar and the unroll+reorder (optimized)
// variants.
func TestGoldenRHOEquivalence(t *testing.T) {
	equivalenceMatrix(t, NewRHO())
}

// materializedRepeats runs alg at 4 threads with materialized output in
// chunk mode (no OutBufs), under the plain and the enclave setting: the
// reference path must reproduce the fast one, and a second fast run the
// first. A phase runs its threads in id order, so the threads claim
// their output chunks from the shared space in the same order on every
// run and on both engine paths.
func materializedRepeats(t *testing.T, alg Algorithm) {
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		label := setting.String() + "/" + alg.Name() + "/materialized"
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			opt := Options{Threads: 4, Optimized: true, Materialize: true}
			fast := goldenRun(t, alg, setting, false, opt)
			compareGolden(t, label, goldenRun(t, alg, setting, true, opt), fast)
			compareGolden(t, label+"/repeat", fast, goldenRun(t, alg, setting, false, opt))
		})
	}
}

// TestGoldenRHOMaterialized compares RHO's multi-threaded materialized
// output across engine paths and repeats.
func TestGoldenRHOMaterialized(t *testing.T) {
	materializedRepeats(t, NewRHO())
}

// TestGoldenPHTMaterialized compares PHT's multi-threaded materialized
// output across engine paths and repeats.
func TestGoldenPHTMaterialized(t *testing.T) {
	materializedRepeats(t, NewPHT())
}

// TestGoldenPHTEquivalence enforces the fast-path invariant on PHT. Its
// shared-table build preclaims every insert slot in input order, so
// multi-threaded runs compare exactly.
func TestGoldenPHTEquivalence(t *testing.T) {
	equivalenceMatrix(t, NewPHT())
}

// TestGoldenMWAYEquivalence enforces the fast-path invariant on the
// sort-merge join. Every MWAY phase (chunk sort, multi-way merge, merge
// join) issues accesses only through the owning thread over
// pre-partitioned ranges, so the join compares exactly at any thread
// count, materialized too.
func TestGoldenMWAYEquivalence(t *testing.T) {
	for _, setting := range allSettings {
		t.Run(setting.String(), func(t *testing.T) {
			t.Parallel()
			opt := Options{Threads: 4}
			compareGolden(t, setting.String()+"/MWAY", goldenRun(t, NewMWAY(), setting, true, opt), goldenRun(t, NewMWAY(), setting, false, opt))
		})
	}
}

// TestGoldenMWAYMaterialized compares the materialized multi-threaded
// variant (with pre-allocated per-thread output buffers, the q5
// configuration, output rows land at deterministic addresses).
func TestGoldenMWAYMaterialized(t *testing.T) {
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		t.Run(setting.String(), func(t *testing.T) {
			t.Parallel()
			run := func(ref bool) *Result {
				env := core.NewEnv(core.Options{
					Plat:      platform.XeonGold6326().Scaled(256),
					Setting:   setting,
					Reference: ref,
				})
				nR := rel.RowsForMB(100) / 256
				nS := rel.RowsForMB(400) / 256
				build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 99)
				outs := make([]*mem.U64Buf, 2)
				for i := range outs {
					outs[i] = env.Space.AllocU64("mway.out", nS, env.DataRegion())
				}
				res, err := NewMWAY().Run(env, build, probe, Options{Threads: 2, Materialize: true, OutBufs: outs})
				if err != nil {
					t.Fatalf("MWAY: %v", err)
				}
				return res
			}
			compareGolden(t, setting.String()+"/MWAY/materialized", run(true), run(false))
		})
	}
}

// TestGoldenCrkEquivalence enforces the fast-path invariant on CrkJoin.
// Cracking partitions both tables in place over disjoint per-thread
// segments and joins partitions round-robin, so it too is deterministic
// at any thread count.
func TestGoldenCrkEquivalence(t *testing.T) {
	equivalenceMatrix(t, NewCrk())
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
