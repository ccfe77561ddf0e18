package join

import (
	"sort"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
)

func testEnv(s core.Setting) *core.Env {
	return core.NewEnv(core.Options{
		Plat:    platform.XeonGold6326().Scaled(256),
		Setting: s,
	})
}

// referenceJoinPairs materializes the joined (probePayload, buildPayload)
// pairs with a hash map: the oracle of the materializing joins.
func referenceJoinPairs(build, probe *rel.Relation) []uint64 {
	m := make(map[uint32][]uint32, build.N())
	for i := 0; i < build.N(); i++ {
		k := build.Key(i)
		m[k] = append(m[k], build.Payload(i))
	}
	var out []uint64
	for i := 0; i < probe.N(); i++ {
		for _, bp := range m[probe.Key(i)] {
			out = append(out, mem.MakeTuple(probe.Payload(i), bp))
		}
	}
	return out
}

// TestReferenceJoinPairs checks the oracle itself: over a foreign-key
// pair every probe row joins exactly one build row with its key.
func TestReferenceJoinPairs(t *testing.T) {
	const nBuild, nProbe = 1000, 5000
	build, probe := rel.GenFKPair(mem.NewSpace(1), nBuild, nProbe, mem.Region{Kind: mem.EPC}, 3)
	pairs := referenceJoinPairs(build, probe)
	if len(pairs) != nProbe {
		t.Fatalf("referenceJoinPairs: %d pairs, want %d", len(pairs), nProbe)
	}
	for _, p := range pairs {
		pr, br := mem.TupleKey(p), mem.TuplePayload(p)
		if probe.Key(int(pr)) != build.Key(int(br)) {
			t.Fatalf("pair (probe %d, build %d) joins keys %d and %d", pr, br, probe.Key(int(pr)), build.Key(int(br)))
		}
	}
}

// TestJoinCorrectness checks every algorithm against the reference count
// across settings, sizes and thread counts. Results must be identical in
// every execution mode: the timing layer cannot influence values.
func TestJoinCorrectness(t *testing.T) {
	sizes := []struct{ nR, nS int }{
		{100, 400},
		{1000, 4000},
		{5000, 20000},
	}
	for _, alg := range All() {
		for _, sz := range sizes {
			for _, threads := range []int{1, 4} {
				for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
					env := testEnv(setting)
					build, probe := rel.GenFKPair(env.Space, sz.nR, sz.nS, env.DataRegion(), 42)
					want := rel.ReferenceJoinCount(build, probe)
					res, err := alg.Run(env, build, probe, Options{Threads: threads})
					if err != nil {
						t.Fatalf("%s: %v", alg.Name(), err)
					}
					if res.Matches != want {
						t.Errorf("%s nR=%d nS=%d threads=%d %s: matches=%d want %d",
							alg.Name(), sz.nR, sz.nS, threads, setting, res.Matches, want)
					}
					if res.WallCycles == 0 {
						t.Errorf("%s: zero wall cycles", alg.Name())
					}
				}
			}
		}
	}
}

// TestJoinOptimizedCorrectness checks the unroll+reorder variants return
// the same results.
func TestJoinOptimizedCorrectness(t *testing.T) {
	for _, alg := range All() {
		env := testEnv(core.SGXDiE)
		build, probe := rel.GenFKPair(env.Space, 3000, 12000, env.DataRegion(), 7)
		want := rel.ReferenceJoinCount(build, probe)
		res, err := alg.Run(env, build, probe, Options{Threads: 4, Optimized: true})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.Matches != want {
			t.Errorf("%s optimized: matches=%d want %d", alg.Name(), res.Matches, want)
		}
	}
}

// TestJoinMaterialization checks materialized outputs against the
// reference pairs (as multisets).
func TestJoinMaterialization(t *testing.T) {
	for _, alg := range All() {
		env := testEnv(core.PlainCPU)
		build, probe := rel.GenFKPair(env.Space, 500, 2000, env.DataRegion(), 13)
		want := referenceJoinPairs(build, probe)
		res, err := alg.Run(env, build, probe, Options{Threads: 4, Materialize: true})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		var got []uint64
		for _, rows := range res.Output {
			got = append(got, rows...)
		}
		if len(got) != len(want) {
			t.Errorf("%s: materialized %d rows, want %d", alg.Name(), len(got), len(want))
			continue
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: row %d = %x, want %x", alg.Name(), i, got[i], want[i])
				break
			}
		}
	}
}

// TestJoinDeterminism: single-threaded runs must produce identical wall
// cycles on repetition (the simulation is deterministic).
func TestJoinDeterminism(t *testing.T) {
	for _, alg := range All() {
		run := func() uint64 {
			env := testEnv(core.SGXDiE)
			build, probe := rel.GenFKPair(env.Space, 2000, 8000, env.DataRegion(), 99)
			res, err := alg.Run(env, build, probe, Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			return res.WallCycles
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: nondeterministic wall cycles %d vs %d", alg.Name(), a, b)
		}
	}
}

// TestJoinMultiThreadDeterminism: PHT's shared-table build preclaims its
// slot indices in input order, and RHO's pass-2 threads refine disjoint
// pass-1 partitions of one shared host array, so multi-threaded runs of
// both must repeat bit-identically — wall cycles AND full stats — in
// both the plain and the optimized kernels. This is what admits q3 (and
// join.PHT) into the multi-threaded golden gate; under -race it also
// checks that RHO's threads never touch the same host words.
func TestJoinMultiThreadDeterminism(t *testing.T) {
	for _, alg := range []Algorithm{NewPHT(), NewRHO()} {
		for _, optimized := range []bool{false, true} {
			run := func() (uint64, uint64, engine.Stats) {
				env := testEnv(core.SGXDiE)
				build, probe := rel.GenFKPair(env.Space, 2000, 8000, env.DataRegion(), 99)
				res, err := alg.Run(env, build, probe, Options{Threads: 4, Optimized: optimized})
				if err != nil {
					t.Fatal(err)
				}
				return res.WallCycles, res.Matches, res.Stats
			}
			aw, am, as := run()
			for rep := 0; rep < 3; rep++ {
				bw, bm, bs := run()
				if aw != bw || am != bm || as != bs {
					t.Errorf("%s optimized=%v rep %d: diverged: wall %d vs %d, matches %d vs %d\nstats a: %+v\nstats b: %+v",
						alg.Name(), optimized, rep, aw, bw, am, bm, as, bs)
				}
			}
		}
	}
}
