package join

import (
	"fmt"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// Grace is the spill-partitioned hash join for EPC oversubscription: a
// multi-pass radix partitioning (GRACE-style) that detects when the build
// side exceeds the enclave's per-thread EPC budget and keeps partitioning
// — recursively, one radix-digit window per pass — until every chunk's
// join working set (build tuples, chained hash entries, bucket heads) is
// enclave-resident, then joins chunk by chunk with the same in-cache
// kernel RHO uses.
//
// Under oversubscription (Env.EPCPages > 0) the staging buffers — the
// ping-pong partition outputs, histograms and cursors — are deliberately
// allocated in untrusted memory: spilled partitions leave the enclave
// through sequential streaming writes, the access pattern SGX tolerates,
// instead of churning the paged EPC. This is the Polars-SGX2 buffer-aware
// design: only the inputs' one streaming read and the budget-sized chunk
// scratch (hash table of the partition being joined) touch EPC pages, so
// the operator faults roughly once per input page and then runs resident
// — the graceful half of the degradation gate, against PHT's shared-table
// random access as the collapsing naive baseline. Without an EPC limit
// everything stays in the data region and the chunk target falls back to
// RHO's L2 target, making the fully-resident run a competitive baseline
// for the degradation ratio.
//
// The chunk sizing is budget-driven: enough radix bits that the average
// build chunk's hash-table working set (tuples, chained entries, bucket
// heads — about 4 bytes of table state per build byte) stays well under
// the thread's EPC share, leaving CLOCK enough slack to protect the
// chunk against the streaming probe traffic.
type Grace struct{}

// NewGrace returns the spill-partitioned join.
func NewGrace() *Grace { return &Grace{} }

// Name returns the algorithm name.
func (*Grace) Name() string { return "GRACE" }

// spillChunkTarget returns the target build-chunk size in bytes: the L2
// target when the EPC is unlimited, else an eighth of the thread's EPC
// share — the chunk join keeps roughly 4 bytes of table state per build
// byte resident plus the probe stream's window, so an eighth leaves a
// comfortable margin for CLOCK to protect the chunk against the stream.
func spillChunkTarget(env *core.Env, threads int) int64 {
	target := env.Plat.L2.SizeBytes / 4
	if target < 512 {
		target = 512
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

// spillPassBits plans the radix passes: total bits to reach the chunk
// target, split into TLB-friendly passes of at most 8 bits (the staging
// buffers live outside the paged EPC, so fanout is not budget-capped).
func spillPassBits(env *core.Env, nBuild, threads int) []uint {
	target := spillChunkTarget(env, threads)
	var total uint
	for int64(nBuild)*rel.TupleBytes>>total > target && total < 20 {
		total++
	}
	if total < 2 {
		total = 2
	}
	return kernels.SplitBits(total, 8)
}

// graceState bundles the ping-pong partitioning buffers for one input.
type graceState struct {
	in   *mem.U64Buf    // input tuples (read-only)
	bufs [2]*mem.U64Buf // ping-pong pass outputs
	cur  *mem.U64Buf    // buffer holding the current level (nil: in)

	start []int // current level's partition starts (len P+1)
}

func newGraceState(env *core.Env, in *rel.Relation) *graceState {
	n := in.N()
	reg := env.SpillRegion()
	return &graceState{
		in: in.Tup,
		bufs: [2]*mem.U64Buf{
			env.Space.AllocU64(in.Name+".sp0", n, reg),
			env.Space.AllocU64(in.Name+".sp1", n, reg),
		},
		start: []int{0, n},
	}
}

// src returns the buffer holding the current level.
func (st *graceState) src() *mem.U64Buf {
	if st.cur == nil {
		return st.in
	}
	return st.cur
}

// Run executes the join.
func (gr *Grace) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return gr.RunOn(env, g, build, probe, opt)
}

// RunOn executes the join on an existing thread group. The pass plan is
// budget-driven (spillPassBits).
func (gr *Grace) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := len(g.Threads)
	mark := g.Mark()
	passes := spillPassBits(env, build.N(), T)
	res := &Result{Algorithm: gr.Name()}

	unroll := 1
	avx := false
	if opt.Optimized {
		unroll = kernels.AVXRegBudget
		avx = true
	}
	spills := make([]*mem.U32Buf, T)
	wcs := make([]*mem.U64Buf, T)
	work := make([]kernels.Scratch, T) // each thread's kernel scratch, shared by all its kernel calls
	maxFan := 1
	for _, b := range passes {
		if f := 1 << b; f > maxFan {
			maxFan = f
		}
	}
	for i := range spills {
		spills[i] = env.Space.AllocU32("spill", 64, env.DataRegion())
		if opt.Optimized {
			wcs[i] = env.Space.AllocU64("wc", maxFan*8, env.SpillRegion())
		}
	}
	histCfg := func(id int, shift, bits uint) kernels.HistConfig {
		return kernels.HistConfig{Shift: shift, Bits: bits, Unroll: unroll, AVX: avx, Spill: spills[id], Scratch: &work[id]}
	}
	scatCfg := func(id int, shift, bits uint) kernels.ScatterConfig {
		return kernels.ScatterConfig{Shift: shift, Bits: bits, Unroll: 8, WC: wcs[id], Scratch: &work[id]}
	}

	R := newGraceState(env, build)
	S := newGraceState(env, probe)

	// When the inputs live in the paged EPC, drain them once into the
	// untrusted staging buffers through sequential streaming (non-temporal)
	// writes: every subsequent partitioning pass then reads untrusted
	// memory, so each input page faults exactly once, independent of the
	// pass count. Without the drain, the histogram and scatter phases
	// would each re-fault the whole input per pass.
	if env.EPCPages > 0 && env.DataRegion().Kind == mem.EPC {
		for _, st := range []*graceState{R, S} {
			src, dst := st.in, st.bufs[1]
			g.Phase("Spill.Drain", func(t *engine.Thread, id int) {
				lo, hi := exec.Chunk(src.Len(), T, id)
				kernels.Drain(t, src, lo, hi, dst, lo)
			})
			st.cur = dst
		}
	}

	// --- Recursive partitioning: one radix-digit window per pass ---
	// Pass 1 is cooperative (all threads histogram and scatter slices of
	// the whole input, kernels.CoopCursors); deeper passes refine the
	// previous level's partitions round-robin, each by one thread.
	shift := uint(0)
	for pass, bk := range passes {
		fan := 1 << bk
		for _, st := range []*graceState{R, S} {
			rows := T // cooperative pass: one counter row per thread
			if pass > 0 {
				rows = len(st.start) - 1 // refining pass: one per partition
			}
			h := env.Space.AllocU32(fmt.Sprintf("%s.h%d", st.in.Name, pass+1), rows*fan, env.SpillRegion())
			cur := env.Space.AllocU32(fmt.Sprintf("%s.c%d", st.in.Name, pass+1), rows*fan, env.SpillRegion())
			src, dst := st.src(), st.bufs[pass&1]
			st.start = kernels.RadixPass(g, fmt.Sprintf("Spill.Hist%d", pass+1), fmt.Sprintf("Spill.Copy%d", pass+1), st.start, fan, h, cur,
				func(t *engine.Thread, id, lo, hi, base int) {
					kernels.Histogram(t, src, lo, hi, h, base, histCfg(id, shift, bk))
				},
				func(t *engine.Thread, id, lo, hi, base int) {
					kernels.Scatter(t, src, lo, hi, dst, cur, base, scatCfg(id, shift, bk))
				})
			st.cur = dst
		}
		shift += bk
	}

	// --- In-cache join per final chunk, round-robin ---
	P := len(R.start) - 1
	maxPart := 0
	for p := 0; p < P; p++ {
		if c := R.start[p+1] - R.start[p]; c > maxPart {
			maxPart = c
		}
	}
	scratches := make([]*scratch, T)
	for i := range scratches {
		scratches[i] = newScratch(env, maxPart)
	}
	counts := make([]uint64, T)
	buildCy := make([]uint64, T)
	probeCy := make([]uint64, T)
	outs := make([]*outWriter, T)
	Rout, Sout := R.src(), S.src()
	g.Phase("Spill.Join", func(t *engine.Thread, id int) {
		var out *outWriter
		if opt.Materialize {
			out = newOutWriter(env, id, opt.outBuf(id))
			outs[id] = out
		}
		var local uint64
		for p := id; p < P; p += T {
			local += joinPartition(t,
				Rout, R.start[p], R.start[p+1],
				Sout, S.start[p], S.start[p+1],
				scratches[id], opt.Optimized, out, &buildCy[id], &probeCy[id])
		}
		counts[id] = local
	})

	for id := 0; id < T; id++ {
		res.Matches += counts[id]
		res.BuildCycles += buildCy[id]
		res.ProbeCycles += probeCy[id]
	}
	if opt.Materialize {
		res.Output = make([][]uint64, T)
		for i, w := range outs {
			if w != nil {
				res.Output[i] = w.result()
			}
		}
	}
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res, nil
}
