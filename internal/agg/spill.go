package agg

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
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

// SpillRun executes the spill-partitioned group-by over the concatenated
// inputs under env.
func SpillRun(env *core.Env, ins []Input, opt Options) *Result {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return SpillRunOn(env, g, ins, opt)
}

// SpillRunOn executes the spill-partitioned group-by on an existing
// thread group. Options.Parts, when it holds a word per input row, lends
// its host words to the first staging buffer, which keeps its own
// simulated range in the spill region; a shorter Parts is not used.
func SpillRunOn(env *core.Env, g *exec.Group, ins []Input, opt Options) *Result {
	T := len(g.Threads)
	mark := g.Mark()
	n, groups := sizes(ins, opt.Groups)
	mustHold("SpillRunOn", "Out", opt.Out, EntryWords*n, n)
	hw := getHostWords()
	defer putHostWords(hw)
	// Enough hash bits that a partition's aggregation working set —
	// EntryBytes per expected group plus the bucket table's word per row —
	// meets the spill target, in TLB-friendly passes of at most 8 bits.
	load := int64(groups)*EntryBytes + int64(n)*4
	passes := kernels.SplitBits(kernels.PartitionBits(load, env.SpillTarget(T), 1, 16), 8)
	stageReg := env.SpillRegion()
	drain := stageReg != env.DataRegion()
	bufs := [2]*mem.U64Buf{
		{Buffer: env.Space.Alloc("agg.sp0", int64(max(n, 1))*8, stageReg)},
		{Buffer: env.Space.Alloc("agg.sp1", int64(max(n, 1))*8, stageReg)},
	}
	if opt.Parts != nil && opt.Parts.Len() >= max(n, 1) {
		bufs[0].D = opt.Parts.D[:max(n, 1)]
	} else {
		bufs[0].D = make([]uint64, max(n, 1))
	}
	// sp1 gets host words only when the drain or a second pass writes it.
	if drain || len(passes) > 1 {
		hw.stage = mem.Reuse(hw.stage, max(n, 1))
		bufs[1].D = hw.stage
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
		nm := passNames[pass]
		hist := env.Space.AllocU32(nm.hist, rows<<bk, stageReg)
		cur := env.Space.AllocU32(nm.cur, rows<<bk, stageReg)
		parts = bufs[pass&1]
		start = radixPass(g, nm.histPhase, nm.partPhase, start, src, hist, cur, parts, opt.Sel, shift, bk)
		src = []Input{{Tup: parts, N: n}}
		shift += bk
	}

	// --- Per-partition in-cache aggregation + emission ---
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), env.DataRegion())
	}
	return aggregate(env, g, mark, hw, n, groups, parts, out, start, opt.Sel, shift)
}

// passNames names each partitioning pass's counter buffers and phases.
// A plan has at most two passes: SplitBits cuts at most 16 partition bits
// into passes of at most 8.
var passNames = [2]struct{ hist, cur, histPhase, partPhase string }{
	{"agg.h1", "agg.c1", "Agg.Hist1", "Agg.Part1"},
	{"agg.h2", "agg.c2", "Agg.Hist2", "Agg.Part2"},
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
	mustHold("DirectRun", "Out", opt.Out, EntryWords*n, n)
	reg := env.DataRegion()
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), reg)
	}
	// New, zeroed words: the one table is never cleared.
	w := newWorker(env, max(n, 1), groups, nil, nil)
	bBits := rng.Log2(w.buckets.Len())
	res := &Result{Rows: n, Out: out}
	g.Phase("Agg.Direct", func(t *engine.Thread, id int) {
		if id != 0 {
			return
		}
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
