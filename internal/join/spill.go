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
// the thread's EPC share (core.Env.SpillTarget takes an eighth of it),
// leaving CLOCK enough slack to protect the chunk against the streaming
// probe traffic.
type Grace struct{}

// NewGrace returns the spill-partitioned join.
func NewGrace() *Grace { return &Grace{} }

// Name returns the algorithm name.
func (*Grace) Name() string { return "GRACE" }

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
// budget-driven (core.Env.SpillTarget).
func (gr *Grace) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := len(g.Threads)
	mark := g.Mark()
	// Enough radix bits that the average build chunk meets the spill
	// target, in TLB-friendly passes of at most 8 bits (the staging
	// buffers live outside the paged EPC, so fanout is not budget-capped).
	passes := kernels.SplitBits(kernels.PartitionBits(int64(build.N())*rel.TupleBytes, env.SpillTarget(T), 2, 20), 8)
	res := &Result{Algorithm: gr.Name()}
	kern := newRadixKernels(env, T, opt.Optimized, 1<<passes[0], env.SpillRegion())

	R := newGraceState(env, build)
	S := newGraceState(env, probe)

	// When the inputs live in the paged EPC, drain them once into the
	// untrusted staging buffers through sequential streaming (non-temporal)
	// writes: every subsequent partitioning pass then reads untrusted
	// memory, so each input page faults exactly once, independent of the
	// pass count. Without the drain, the histogram and scatter phases
	// would each re-fault the whole input per pass.
	if env.SpillRegion() != env.DataRegion() {
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
					kernels.Histogram(t, src, lo, hi, h, base, kern.hist(id, shift, bk))
				},
				func(t *engine.Thread, id, lo, hi, base int) {
					kernels.Scatter(t, src, lo, hi, dst, cur, base, kern.scatter(id, shift, bk))
				})
			st.cur = dst
		}
		shift += bk
	}

	// --- In-cache join per final chunk, round-robin ---
	joinPartitions(env, g, "Spill.Join", R.src(), R.start, S.src(), S.start, 1, opt, res)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res, nil
}
