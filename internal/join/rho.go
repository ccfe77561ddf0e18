package join

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// RHO is the Radix Hash Optimized join [28, 3]: both inputs are radix-
// partitioned in two parallel passes into cache-sized partitions, which
// are then joined with an in-cache hash table. This is the paper's
// best-performing algorithm and the one its optimization study centers
// on (Figures 1, 6, 9). The two-phase parallel partitioning follows Kim
// et al. [21]: per-thread histograms, a cooperative prefix sum, and
// contention-free scatters through per-thread cursors.
type RHO struct{}

// NewRHO returns the RHO algorithm.
func NewRHO() *RHO { return &RHO{} }

// Name returns the paper's name for the algorithm.
func (*RHO) Name() string { return "RHO" }

// RadixBits picks the total number of radix bits so that the average
// final R partition fits comfortably in L2 (cache-sized partitions).
func RadixBits(env *core.Env, nBuild int) (b1, b2 uint) {
	target := env.Plat.L2.SizeBytes / 4
	if target < 512 {
		target = 512
	}
	var b uint
	for int64(nBuild)*rel.TupleBytes>>b > target && b < 18 {
		b++
	}
	if b < 2 {
		b = 2
	}
	b1 = (b + 1) / 2
	b2 = b - b1
	if b2 < 1 {
		b2 = 1
	}
	return b1, b2
}

// rhoState bundles the partitioning buffers for one input table. The
// pass-1 output tmp keeps its own simulated range but shares its host
// words with the pass-2 output out: pass 1 writes that one array in
// pass-1 order, and pass 2 refines each pass-1 partition in place from a
// per-thread staging copy of it, so the host holds one partitioned copy
// of the input instead of two.
type rhoState struct {
	in   *mem.U64Buf // input tuples
	tmp  *mem.U64Buf // pass-1 output (host words: out.D)
	out  *mem.U64Buf // pass-2 output
	h1   *mem.U32Buf // per-thread pass-1 histograms (T x P1)
	cur1 *mem.U32Buf // per-thread pass-1 cursors (T x P1)
	h2   *mem.U32Buf // pass-2 histograms (P1 x P2)
	cur2 *mem.U32Buf // pass-2 cursors (P1 x P2)

	start1 []int // pass-1 partition starts (len P1+1)
	start2 []int // final partition starts, indexed p1*P2+p2 (len P1*P2+1)
}

func newRHOState(env *core.Env, in *rel.Relation, threads int, p1, p2 int) *rhoState {
	n := in.N()
	reg := env.DataRegion()
	tmp := env.Space.Alloc(in.Name+".tmp", int64(n)*8, reg)
	out := env.Space.AllocU64(in.Name+".out", n, reg)
	return &rhoState{
		in:     in.Tup,
		tmp:    &mem.U64Buf{Buffer: tmp, D: out.D},
		out:    out,
		h1:     env.Space.AllocU32(in.Name+".h1", threads*p1, reg),
		cur1:   env.Space.AllocU32(in.Name+".cur1", threads*p1, reg),
		h2:     env.Space.AllocU32(in.Name+".h2", p1*p2, reg),
		cur2:   env.Space.AllocU32(in.Name+".cur2", p1*p2, reg),
		start1: make([]int, p1+1),
		start2: make([]int, p1*p2+1),
	}
}

// Run executes the join.
func (r *RHO) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return r.RunOn(env, g, build, probe, opt)
}

// RunOn executes the join on an existing thread group (pipeline stage
// composition: simulated cache/TLB state carries over from the previous
// stage). Options.Threads is ignored; the group decides it.
// Result timing and stats cover only this stage's phases.
func (r *RHO) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := len(g.Threads)
	mark := g.Mark()
	b1, b2 := RadixBits(env, build.N())
	p1, p2 := 1<<b1, 1<<b2
	R := newRHOState(env, build, T, p1, p2)
	S := newRHOState(env, probe, T, p1, p2)
	res := &Result{Algorithm: r.Name()}

	unroll := 1
	avx := false
	if opt.Optimized {
		// The optimized variant uses the AVX-512 histogram: 8-wide
		// vectorized index computation at the vector register budget of
		// Fig 8, with line-granular key loads and no spills.
		unroll = kernels.AVXRegBudget
		avx = true
	}
	spills := make([]*mem.U32Buf, T)
	wcs := make([]*mem.U64Buf, T)
	work := make([]kernels.Scratch, T) // each thread's kernel scratch, shared by all its kernel calls
	maxP := p1
	if p2 > maxP {
		maxP = p2
	}
	for i := range spills {
		spills[i] = env.Space.AllocU32("spill", 64, env.DataRegion())
		if opt.Optimized {
			// Per-thread write-combining arena: one line per partition.
			wcs[i] = env.Space.AllocU64("wc", maxP*8, env.DataRegion())
		}
	}
	histCfg := func(id int, shift, bits uint) kernels.HistConfig {
		return kernels.HistConfig{Shift: shift, Bits: bits, Unroll: unroll, AVX: avx, Spill: spills[id], Scratch: &work[id]}
	}
	scatCfg := func(id int, shift, bits uint) kernels.ScatterConfig {
		// wcs[id] is set only when optimized, and selects the
		// write-combining copy. That copy keeps no per-tuple cursor in
		// registers, so it can afford a deep unroll; the naive scalar
		// copy ignores Unroll.
		return kernels.ScatterConfig{Shift: shift, Bits: bits, Unroll: 8, WC: wcs[id], Scratch: &work[id]}
	}

	// --- Pass 1: histograms over both inputs ---
	g.Phase("Hist1", func(t *engine.Thread, id int) {
		for _, st := range []*rhoState{R, S} {
			lo, hi := exec.Chunk(st.in.Len(), T, id)
			kernels.Histogram(t, st.in, lo, hi, st.h1, id*p1, histCfg(id, 0, b1))
		}
	})

	// --- Pass 1: cooperative cursors + scatter ---
	g.Phase("Copy1", func(t *engine.Thread, id int) {
		for _, st := range []*rhoState{R, S} {
			kernels.CoopCursors(t, st.h1, st.cur1, T, id, st.start1)
			lo, hi := exec.Chunk(st.in.Len(), T, id)
			kernels.Scatter(t, st.in, lo, hi, st.tmp, st.cur1, id*p1, scatCfg(id, 0, b1))
		}
	})
	// --- Pass 2: per-partition histograms ---
	g.Phase("Hist2", func(t *engine.Thread, id int) {
		for _, st := range []*rhoState{R, S} {
			for pp := id; pp < p1; pp += T {
				kernels.Histogram(t, st.tmp, st.start1[pp], st.start1[pp+1], st.h2, pp*p2, histCfg(id, b1, b2))
			}
		}
	})

	// --- Pass 2: local cursors + scatter ---
	// Each pass-1 partition is refined in place: staged out of the shared
	// host array, then scattered back from the same simulated addresses.
	maxP1 := 0
	for _, st := range []*rhoState{R, S} {
		for pp := 0; pp < p1; pp++ {
			maxP1 = max(maxP1, st.start1[pp+1]-st.start1[pp])
		}
	}
	g.Phase("Copy2", func(t *engine.Thread, id int) {
		stage := make([]uint64, maxP1)
		for _, st := range []*rhoState{R, S} {
			for pp := id; pp < p1; pp += T {
				lo, hi := st.start1[pp], st.start1[pp+1]
				kernels.LocalCursors(t, st.h2, st.cur2, pp*p2, lo, st.start2[pp*p2:(pp+1)*p2])
				part := &mem.U64Buf{Buffer: st.tmp.Slice(int64(lo)*8, int64(hi-lo)*8), D: stage[:hi-lo]}
				copy(part.D, st.tmp.D[lo:hi])
				kernels.Scatter(t, part, 0, hi-lo, st.out, st.cur2, pp*p2, scatCfg(id, b1, b2))
			}
		}
	})
	for _, st := range []*rhoState{R, S} {
		st.start2[p1*p2] = st.in.Len()
	}

	// --- In-cache join per final partition ---
	maxPart := 0
	for fp := 0; fp < p1*p2; fp++ {
		maxPart = max(maxPart, R.start2[fp+1]-R.start2[fp])
	}
	scratches := make([]*scratch, T)
	for i := range scratches {
		scratches[i] = newScratch(env, maxPart)
	}
	counts := make([]uint64, T)
	buildCy := make([]uint64, T)
	probeCy := make([]uint64, T)
	outs := make([]*outWriter, T)
	g.Phase("Join", func(t *engine.Thread, id int) {
		var out *outWriter
		if opt.Materialize {
			out = newOutWriter(env, id, opt.outBuf(id))
			outs[id] = out
		}
		var local uint64
		for pp := id; pp < p1; pp += T {
			for fp := pp * p2; fp < (pp+1)*p2; fp++ {
				local += joinPartition(t,
					R.out, R.start2[fp], R.start2[fp+1],
					S.out, S.start2[fp], S.start2[fp+1],
					scratches[id], opt.Optimized, out, &buildCy[id], &probeCy[id])
			}
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
