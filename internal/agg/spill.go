package agg

import (
	"fmt"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
)

// This file holds the EPC-oversubscription pair of group-by operators:
//
//   - SpillRunOn: the spill-partitioned group-by. Like the regular
//     RunOn it radix-partitions on hash digits and aggregates partition
//     by partition, but the partition count is driven by the enclave's
//     per-thread EPC budget instead of L2, the partitioning runs in as
//     many recursive passes as that budget demands, and under a capacity
//     limit the staging buffers live in untrusted memory — spilled
//     partitions leave the enclave through sequential streaming writes,
//     so only the inputs' single drain pass and the budget-sized worker
//     tables touch EPC pages.
//
//   - DirectRun: the naive baseline. One thread, one full-domain hash
//     table, no partitioning — the textbook group-by whose hash-derived
//     random accesses demand-page catastrophically once the table
//     outgrows the EPC. It exists to demonstrate the collapse the spill
//     operator avoids (the degradation gate's second half).

// spillAggTarget returns the per-partition working-set target in bytes:
// the L2 target when the EPC is unlimited, else an eighth of the
// thread's EPC share (the worker keeps buckets and touched entries
// resident while the partition streams through).
func spillAggTarget(env *core.Env, threads int) int64 {
	target := env.Plat.L2.SizeBytes / 4
	if target < 1024 {
		target = 1024
	}
	if env.EPCPages > 0 {
		per := env.EPCPages * 4096 / int64(threads)
		if b := per / 8; b < target {
			target = b
		}
		if target < 1024 {
			target = 1024
		}
	}
	return target
}

// spillAggPassBits plans the recursive partitioning: total hash bits so
// that a partition's aggregation working set — EntryBytes per expected
// group plus the bucket table's word per row — fits the target, split
// into TLB-friendly passes of at most 8 bits.
func spillAggPassBits(env *core.Env, n, groups, threads int) []uint {
	target := spillAggTarget(env, threads)
	load := int64(groups)*EntryBytes + int64(n)*4
	var total uint = 1
	for load>>total > target && total < 16 {
		total++
	}
	return kernels.SplitBits(total, 8)
}

// SpillRun executes the spill-partitioned group-by over the concatenated
// inputs under env.
func SpillRun(env *core.Env, ins []Input, opt Options) *Result {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return SpillRunOn(env, g, ins, opt)
}

// SpillRunOn executes the spill-partitioned group-by on an existing
// thread group.
func SpillRunOn(env *core.Env, g *exec.Group, ins []Input, opt Options) *Result {
	T := len(g.Threads)
	mark := g.Mark()
	n, groups := sizes(ins, opt.Groups)
	passes := spillAggPassBits(env, n, groups, T)
	stageReg := env.SpillRegion()
	drain := env.EPCPages > 0 && env.DataRegion().Kind == mem.EPC
	bufs := [2]*mem.U64Buf{
		env.Space.AllocU64("agg.sp0", max(n, 1), stageReg),
		{Buffer: env.Space.Alloc("agg.sp1", int64(max(n, 1))*8, stageReg)},
	}
	// sp1 gets host words only when the drain or a second pass writes it.
	if drain || len(passes) > 1 {
		bufs[1].D = make([]uint64, max(n, 1))
	}

	src := ins
	// When the inputs live in the paged EPC, drain them once into the
	// untrusted staging buffer through sequential streaming (non-temporal)
	// writes: every partitioning pass then reads untrusted memory, so each
	// input page faults exactly once, independent of the pass count.
	if drain {
		stage := bufs[1]
		g.Phase("Agg.Drain", func(t *engine.Thread, id int) {
			lo, hi := exec.Chunk(n, T, id)
			at := lo // segments cover [lo, hi) in order
			forSegments(ins, lo, hi, func(seg Input, sLo, sHi int) {
				kernels.Drain(t, seg.Tup, sLo, sHi, stage, at)
				at += sHi - sLo
			})
		})
		src = []Input{{Tup: stage, N: n}}
	}

	// --- Recursive partitioning: one hash-digit window per pass ---
	// Pass 1 is cooperative (all threads histogram and scatter slices of
	// the whole input, kernels.CoopCursors); deeper passes refine the
	// previous level's partitions round-robin, each by one thread.
	start := []int{0, n}
	var parts *mem.U64Buf
	shift := uint(0)
	for pass, bk := range passes {
		rows := T // cooperative pass: one counter row per thread
		if pass > 0 {
			rows = len(start) - 1 // refining pass: one per partition
		}
		hist := env.Space.AllocU32(fmt.Sprintf("agg.h%d", pass+1), rows<<bk, stageReg)
		cur := env.Space.AllocU32(fmt.Sprintf("agg.c%d", pass+1), rows<<bk, stageReg)
		parts = bufs[pass&1]
		start = radixPass(g, fmt.Sprintf("Agg.Hist%d", pass+1), fmt.Sprintf("Agg.Part%d", pass+1), start, src, hist, cur, parts, opt.Sel, shift, bk)
		src = []Input{{Tup: parts, N: n}}
		shift += bk
	}

	// --- Per-partition in-cache aggregation + emission ---
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), env.DataRegion())
	}
	return aggregate(env, g, mark, n, groups, parts, out, start, opt.Sel, shift)
}

// DirectRun executes the naive single-table group-by under env on one
// thread: every segment streams through one full-domain hash table sized
// at the input row count, exactly the operator shape whose random
// accesses collapse under EPC oversubscription. Options.Threads is
// ignored — the baseline is deliberately single-threaded.
func DirectRun(env *core.Env, ins []Input, opt Options) *Result {
	g := env.NewGroup(1, nil)
	defer g.Release()
	mark := g.Mark()
	n, groups := sizes(ins, opt.Groups)
	reg := env.DataRegion()
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), reg)
	}
	w := newWorker(env, max(n, 1), groups)
	nb := nextPow2(max(n, 1))
	if nb < 16 {
		nb = 16
	}
	bBits := log2(nb)
	res := &Result{Rows: n, Out: out}
	g.Phase("Agg.Direct", func(t *engine.Thread, id int) {
		if id != 0 {
			return
		}
		w.gen++
		var nG uint32
		for _, in := range ins {
			nG = w.aggregateRun(t, in.Tup, 0, in.N, opt.Sel, 0, bBits, nG)
		}
		w.emit(t, out, 0, int(nG))
		res.Groups = int(nG)
	})
	res.PartStart = []int{0, res.Groups}
	res.PartGroups = []int{res.Groups}
	res.Check = checksum(out, res.PartStart, res.PartGroups)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}
