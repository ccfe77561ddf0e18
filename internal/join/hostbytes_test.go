package join

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
)

// hostBytes runs prep and then measured three times and returns the
// fewest bytes one measured call allocated on the host (the call is
// deterministic; anything above the minimum came from the runtime or
// the test binary). prep's own allocations are not counted.
func hostBytes(prep func() func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		measured := prep()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measured()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestJoinHostBytes is the host-memory budget of the joins the
// repository benchmark runs, at its join_probe sizes (100 MB x 400 MB
// scaled down 128x, two threads, optimized kernels): the host slices
// behind the simulated buffers follow what an operator holds, not what
// it reserves. RHO may allocate 1.3x its input bytes per Run (one
// partitioned copy of each input plus scratch), PHT 2.5x its build bytes
// (the counting-sorted table plus its claims). A group-by whose Groups
// hint is far below its largest partition keeps its entry arena at the
// hint, so it allocates little beyond its bucket tables; a spill
// group-by given Parts stages its first pass in Parts' words.
func TestJoinHostBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const scale = 128
	nR, nS := rel.RowsForMB(100)/scale, rel.RowsForMB(400)/scale
	newEnv := func() *core.Env {
		return core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(scale), Setting: core.SGXDiE})
	}
	for _, tc := range []struct {
		alg    Algorithm
		budget float64 // bytes per Run, in input bytes (RHO) or build bytes (PHT)
	}{{NewRHO(), 1.3}, {NewPHT(), 2.5}} {
		basis := int64(nR+nS) * rel.TupleBytes
		if tc.alg.Name() == "PHT" {
			basis = int64(nR) * rel.TupleBytes
		}
		got := hostBytes(func() func() {
			env := newEnv()
			build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1)
			return func() {
				if _, err := tc.alg.Run(env, build, probe, Options{Threads: 2, Optimized: true}); err != nil {
					t.Fatal(err)
				}
			}
		})
		ratio := float64(got) / float64(basis)
		t.Logf("%s: %d B per Run, %.2fx (budget %.1fx)", tc.alg.Name(), got, ratio, tc.budget)
		if ratio > tc.budget {
			t.Errorf("%s: %d B per Run is %.2fx, budget %.1fx", tc.alg.Name(), got, ratio, tc.budget)
		}
	}

	// Group-by: 2^17 rows over 64 groups. RunOn's two partitions size
	// each worker's bucket table (4 B per bucket, at most 2^17 buckets);
	// the entry arena, whose simulated range reserves 32 B per row,
	// follows the hint. SpillRunOn's many small partitions keep its
	// bucket tables small, and its staging copy (8 B per row) borrows
	// Parts' words, so it stays under a quarter of that copy.
	const rows, groups = 1 << 17, 64
	for _, op := range []struct {
		name   string
		run    func(*core.Env, *exec.Group, []agg.Input, agg.Options) *agg.Result
		budget uint64 // bytes per Run
	}{
		{"RunOn", agg.RunOn, 2 * 4 * rows * 5 / 4}, // two workers' bucket tables + 25%
		{"SpillRunOn", agg.SpillRunOn, 8 * rows / 4},
	} {
		got := hostBytes(func() func() {
			env := newEnv()
			in := env.Space.AllocU64("in", rows, env.DataRegion())
			for i := range in.D {
				in.D[i] = mem.MakeTuple(uint32(i%groups+1), uint32(i))
			}
			g := env.NewGroup(2, nil)
			opt := agg.Options{
				Groups: groups,
				Out:    env.Space.AllocU64("agg.out", agg.EntryWords*rows, env.DataRegion()),
				Parts:  env.Space.AllocU64("agg.parts", rows, env.DataRegion()),
			}
			return func() { op.run(env, g, []agg.Input{{Tup: in, N: rows}}, opt) }
		})
		t.Logf("group-by %s: %d B per Run (budget %d)", op.name, got, op.budget)
		if got > op.budget {
			t.Errorf("group-by %s: %d B per Run, budget %d: host words follow neither the Groups hint nor the partitions", op.name, got, op.budget)
		}
	}
}

// TestJoinAllocsFlat: the radix kernels and PHT's batches keep their
// working memory per thread and run, not per kernel call, so a join's
// host allocation count per Run does not follow its partition count.
// Each join runs at two build sizes 4x apart, whose RHO radix bits
// differ by two (and whose GRACE plans keep one pass), and must allocate
// the same number of objects at both, within an absolute budget per Run:
// the count measured when the test was written, plus 10%.
func TestJoinAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const scale = 128
	newEnv := func() *core.Env {
		return core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(scale), Setting: core.SGXDiE})
	}
	sizes := []int{rel.RowsForMB(100) / scale / 4, rel.RowsForMB(100) / scale}
	for _, tc := range []struct {
		alg       Algorithm
		optimized bool
		budget    uint64 // allocations per Run
	}{
		{NewRHO(), true, 110},
		{NewRHO(), false, 88},
		{NewGrace(), true, 102},
		{NewPHT(), true, 30},
	} {
		var counts []uint64
		var bits []uint
		for _, nR := range sizes {
			env := newEnv()
			build, probe := rel.GenFKPair(env.Space, nR, 4*nR, env.DataRegion(), 1)
			// One host thread and no collection: a collection empties
			// the cache models' pools, so their refill would follow how
			// many collections the Run's bytes trigger. The deferred
			// restore also runs when a failing Run stops the test.
			allocs := func() uint64 {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				return uint64(testing.AllocsPerRun(3, func() {
					if _, err := tc.alg.Run(env, build, probe, Options{Threads: 2, Optimized: tc.optimized}); err != nil {
						t.Fatal(err)
					}
				}))
			}()
			load := int64(nR) * rel.TupleBytes
			counts, bits = append(counts, allocs), append(bits, kernels.PartitionBits(load, env.L2Target(), 2, 18))
			if passes := kernels.SplitBits(kernels.PartitionBits(load, env.SpillTarget(2), 2, 20), 8); len(passes) != 1 {
				t.Fatalf("GRACE plans passes %v at %d build rows, want one", passes, nR)
			}
		}
		name := fmt.Sprintf("%s optimized=%v", tc.alg.Name(), tc.optimized)
		t.Logf("%s: %v allocations per Run at %v builds (%v radix bits; budget %d)", name, counts, sizes, bits, tc.budget)
		if bits[1] != bits[0]+2 {
			t.Fatalf("%s: radix bits %v at builds %v, want two apart", name, bits, sizes)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: %d allocations per Run at %d build rows, %d at %d: the count follows the partition count",
				name, counts[0], sizes[0], counts[1], sizes[1])
		}
		if counts[1] > tc.budget {
			t.Errorf("%s: %d allocations per Run, budget %d", name, counts[1], tc.budget)
		}
	}
}
