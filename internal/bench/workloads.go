package bench

import (
	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/join"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
	"sgxbench/internal/scan"
)

// sizes is every workload dimension of one suite scale.
type sizes struct {
	seqBytes, gatherArr             int64
	scanBytes, gatherIDs, gatherOps int   // gatherIDs caps the scan.gather volume
	rhoScale                        int64 // platform scale-down of the join.RHO equivalence twin
	qDim, qFact, qMaxRows           int
	q3Fact                          int // unfiltered join-agg: keep the probe side bounded
	spillJoinScale                  int // shrinks the 100 MB join 400 MB inputs against a scaled-down EPC
	spillAggN, spillAggGroups       int
	planDim, planFact               int
	reps                            int
}

// fullSizes is the nightly sweep (near-full-size working sets),
// quickSizes the CI smoke run the golden snapshot pins.
var (
	fullSizes = sizes{
		seqBytes: 256 << 20, gatherArr: 256 << 20, scanBytes: 64 << 20, gatherIDs: 4 << 20, gatherOps: 1 << 21,
		rhoScale: 4, qDim: 1 << 16, qFact: 2 << 20, qMaxRows: 1 << 20, q3Fact: 1 << 20,
		spillJoinScale: 128, spillAggN: 1 << 19, spillAggGroups: 1 << 16,
		planDim: 1 << 12, planFact: 1 << 17, reps: 5,
	}
	quickSizes = sizes{
		seqBytes: 16 << 20, gatherArr: 16 << 20, scanBytes: 4 << 20, gatherIDs: 1 << 17, gatherOps: 1 << 16,
		rhoScale: 64, qDim: 1 << 10, qFact: 1 << 16, qMaxRows: 1 << 14, q3Fact: 1 << 15,
		spillJoinScale: 512, spillAggN: 1 << 17, spillAggGroups: 1 << 14,
		planDim: 512, planFact: 1 << 14, reps: 1,
	}
)

// prepCtx is what a workload is prepared for.
type prepCtx struct {
	ref     bool
	setting core.Setting
	threads int
	z       sizes
	rings   rings     // a serving run's trace and metrics ring capacities
	out     *Replayed // the run's detail, filled by the runner
}

// env is a fresh environment at 1/scale size, EPC capped at epcPages (0: no cap).
func (c prepCtx) env(scale, epcPages int64) *core.Env {
	return core.NewEnv(core.Options{
		Plat: platform.XeonGold6326().Scaled(scale), Setting: c.setting, Reference: c.ref, EPCPages: epcPages,
	})
}

// workload is one row of the suite: prep builds environment, inputs and
// pre-allocated buffers once, the returned runner is one repetition.
// The sweep runs every row (except twinOnly ones) under all four settings
// at -threads on the fast path; the equivalence section runs every row
// single-threaded under SGX DiE on both engine paths.
type workload struct {
	name string
	prep func(c prepCtx) runner
	// twinPrep, when set, replaces prep in the equivalence section: the
	// joins' fast-vs-reference twins run larger inputs than the sweep.
	twinPrep func(c prepCtx) runner
	twinOnly bool // equivalence section only
	profiled bool // a query pipeline: its runs carry a cycle-attribution profiler
}

// workloads is the suite table in report order. The sweep joins run at
// 1/8 of the RHO twin's inputs, the non-RHO twins at 1/4.
var workloads = append([]workload{
	{name: "seq.stream", twinOnly: true, prep: prepSeq},
	{name: "scan.bv", prep: func(c prepCtx) runner { return prepScan(c, false) }},
	{name: "scan.rowid", prep: func(c prepCtx) runner { return prepScan(c, true) }},
	{name: "scan.gather", prep: prepGather},
	{name: "micro.gather", prep: prepMicroGather},
	{name: "join.RHO", prep: joinAt(join.NewRHO, 8), twinPrep: joinAt(join.NewRHO, 1)},
	{name: "join.PHT", prep: joinAt(join.NewPHT, 8), twinPrep: joinAt(join.NewPHT, 4)},
	{name: "join.MWAY", prep: joinAt(join.NewMWAY, 8), twinPrep: joinAt(join.NewMWAY, 4)},
	{name: "join.CrkJoin", prep: joinAt(join.NewCrk, 8), twinPrep: joinAt(join.NewCrk, 4)},
}, pipelineWorkloads()...)

// joinAt prepares alg at the RHO twin's platform scale shrunk further.
func joinAt[A join.Algorithm](alg func() A, shrink int64) func(prepCtx) runner {
	return func(c prepCtx) runner { return prepJoin(c, alg(), c.z.rhoScale*shrink) }
}

// pipelineWorkloads is one row per fixed query shape: the unfiltered ones
// feed the whole q3Fact-row fact table downstream, the others cap at qMaxRows.
func pipelineWorkloads() []workload {
	unfiltered := map[string]bool{plan.Q3Name: true, plan.Q5Name: true, plan.Q3SName: true}
	var wls []workload
	for _, p := range plan.Fixed() {
		wls = append(wls, workload{name: p.Name, profiled: true, prep: func(c prepCtx) runner {
			if unfiltered[p.Name] {
				return prepPipeline(c, p, c.z.qDim, c.z.q3Fact, 0)
			}
			return prepPipeline(c, p, c.z.qDim, c.z.qFact, c.z.qMaxRows)
		}})
	}
	return wls
}

// kernelRunner runs one single-thread kernel on a fresh (cold) thread.
func kernelRunner(env *core.Env, kernel func(t *engine.Thread) uint64) runner {
	return func() sample {
		t := engine.NewThread(env.EngineConfig(), 0)
		cyc := kernel(t)
		st := t.Stats()
		st.Cycles = cyc
		return sample{cycles: cyc, check: cyc, stats: st}
	}
}

func prepSeq(c prepCtx) runner {
	env := c.env(32, 0)
	buf := env.Space.Raw("seq", c.z.seqBytes, env.DataRegion())
	return kernelRunner(env, func(t *engine.Thread) uint64 { return kernels.StreamRead(t, buf, 0, c.z.seqBytes) })
}

// prepMicroGather is the Fig 5 random-access micro-benchmark in its
// batched form (kernels.GatherAccess) over a DRAM-sized array.
func prepMicroGather(c prepCtx) runner {
	env := c.env(32, 0)
	buf := env.Space.Raw("gather.arr", c.z.gatherArr, env.DataRegion())
	return kernelRunner(env, func(t *engine.Thread) uint64 { return kernels.GatherAccess(t, buf, c.z.gatherOps, false, 5) })
}

// scanColumn builds the scan workloads' environment and filled column.
func scanColumn(c prepCtx) (*core.Env, *mem.U8Buf) {
	env := c.env(32, 0)
	col := env.Space.AllocU8("col", c.z.scanBytes, env.DataRegion())
	scan.GenColumn(col, 9)
	return env, col
}

var scanPred = scan.Predicate{Lo: 16, Hi: 127}

func prepScan(c prepCtx, rowIDs bool) runner {
	env, col := scanColumn(c)
	opt := scan.Options{Threads: c.threads, Pred: scanPred, RowIDs: rowIDs}
	if rowIDs {
		opt.IDs = env.Space.AllocU64("scan.ids", col.Len()+64, env.DataRegion())
	} else {
		opt.Bits = env.Space.AllocU64("scan.bits", col.Len()/64+2, env.DataRegion())
	}
	return func() sample {
		res := scan.Run(env, col, opt)
		c.out.Phases = res.Phases
		return sample{cycles: res.WallCycles, check: res.Matches, stats: res.Stats}
	}
}

// prepGather prepares the filter→gather plan: the row-id scan runs once
// (in prep), its ids are shuffled into an unclustered list, and each
// repetition re-gathers the payload column at those ids. gatherIDs caps
// the gather volume so the suite stays within minutes (random accesses
// are the most expensive pattern to simulate).
func prepGather(c prepCtx) runner {
	env, col := scanColumn(c)
	sc := scan.Run(env, col, scan.Options{Threads: c.threads, Pred: scanPred, RowIDs: true})
	n := int(sc.Matches)
	scan.ShuffleIDs(sc.IDs, n, 21)
	if n > c.z.gatherIDs {
		n = c.z.gatherIDs
	}
	gopt := scan.GatherOptions{Threads: c.threads, Out: env.Space.AllocU8("scan.gathered", n, env.DataRegion())}
	return func() sample {
		res := scan.Gather(env, col, sc.IDs, n, gopt)
		c.out.Phases = res.Phases
		return sample{cycles: res.WallCycles, check: res.Sum, stats: res.Stats}
	}
}

// joinRunner builds an nR join nS foreign-key pair once; every
// repetition re-runs alg (fresh per-run state is allocated from the same
// simulated space, so repetition k sees the same addresses in both
// engine modes). The options are fixed: an error is a bug in the suite.
func joinRunner(c prepCtx, env *core.Env, alg join.Algorithm, nR, nS int, seed uint64) runner {
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), seed)
	return func() sample {
		res, err := alg.Run(env, build, probe, join.Options{Threads: c.threads, Optimized: true})
		if err != nil {
			panic(err)
		}
		c.out.Phases = res.Phases
		return sample{cycles: res.WallCycles, check: res.Matches, stats: res.Stats}
	}
}

// prepJoin is the paper's 100 MB join 400 MB, scaled with the platform.
func prepJoin(c prepCtx, alg join.Algorithm, scale int64) runner {
	return joinRunner(c, c.env(scale, 0), alg, rel.RowsForMB(100)/int(scale), rel.RowsForMB(400)/int(scale), 1234)
}

// epcPagesFor caps the EPC at wsBytes / ratio (0: unlimited, resident).
func epcPagesFor(wsBytes, ratio int64) int64 {
	if ratio == 0 {
		return 0
	}
	return wsBytes / 4096 / ratio
}

// prepSpillJoin prepares one join under an EPC capacity of the inputs'
// working set divided by ratio.
func prepSpillJoin(c prepCtx, alg join.Algorithm, ratio int64) runner {
	nR, nS := rel.RowsForMB(100)/c.z.spillJoinScale, rel.RowsForMB(400)/c.z.spillJoinScale
	return joinRunner(c, c.env(256, epcPagesFor(int64(nR+nS)*rel.TupleBytes, ratio)), alg, nR, nS, 99)
}

// prepSpillAgg prepares the spill-partitioned or naive direct group-by
// under an EPC capacity of the input working set divided by ratio.
func prepSpillAgg(c prepCtx, run func(*core.Env, []agg.Input, agg.Options) *agg.Result, ratio int64) runner {
	n, groups := c.z.spillAggN, c.z.spillAggGroups
	env := c.env(256, epcPagesFor(int64(n)*8, ratio))
	_, fact := rel.GenFKPair(env.Space, groups, n, env.DataRegion(), 99)
	ins := []agg.Input{{Tup: fact.Tup, N: n}}
	opt := agg.Options{Threads: c.threads, Sel: agg.ByKey, Groups: groups}
	return func() sample {
		res := run(env, ins, opt)
		c.out.Phases = res.Phases
		return sample{cycles: res.WallCycles, check: res.Check, stats: res.Stats}
	}
}

// prepPipeline prepares one end-to-end query pipeline: the star-schema
// dataset and all inter-stage scratch are allocated once; every
// repetition re-runs the whole plan (scan → [join →] aggregation) on a
// fresh thread group. maxRows caps the filtered rows fed downstream
// (0: no cap; the scratch is then sized for the full fact table).
func prepPipeline(c prepCtx, p plan.Query, nDim, nFact, maxRows int) runner {
	env := c.env(32, 0)
	ds := plan.GenDataset(env, nDim, nFact, 4242)
	capRows := nFact
	if maxRows > 0 && maxRows < capRows {
		capRows = maxRows
	}
	// A cycle-attribution profiler rides along on every pipeline run:
	// the golden gate's bit-identical checks then prove the profiling
	// hooks perturb nothing.
	opt := plan.Options{
		Threads: c.threads, Pred: scanPred, MaxRows: maxRows,
		Scratch: plan.NewScratch(env, ds, c.threads, capRows), Profiler: obs.NewProfiler("run"),
	}
	return func() sample {
		res := p.Run(env, ds, opt)
		c.out.Phases, c.out.Stages, c.out.Profiler = res.Phases, res.Stages, opt.Profiler
		return sample{cycles: res.WallCycles, check: res.Check, stats: res.Stats}
	}
}
