// Package plan is the query planning and execution layer: composable
// plan nodes (Scan, Filter, Gather, the join family, GroupBy, Sort,
// TopK, Limit) that each execute over ONE shared exec.Group with
// pre-allocated Scratch intermediates, an enclave-aware cost model
// calibrated from the simulated engine itself, and a planner that
// enumerates join/aggregation strategy alternatives and picks the
// cheapest by simulated SGX cost — end-to-end analytical queries, the
// workload class the paper's title names but its experiments only probe
// operator by operator.
//
// Every query is addressed through one registry (ByName): the seven
// fixed shapes q1..q5, q2s, q3s (Fixed), plus the 20-query planner suite
// (Suite) whose strategies the planner picks per setting.
//
// A pipeline runs all of its stages on ONE exec.Group: the same
// simulated threads execute scan, join and aggregation phases back to
// back, so cache, TLB and prefetcher state carry across operator
// boundaries, and every intermediate (row-id lists, filtered fact
// tuples, materialized join outputs, partition buffers) is allocated in
// the environment's data region — EPC-resident under SGX DiE, exactly
// where DuckDB-style engines hold intermediates inside an enclave.
package plan

import (
	"fmt"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/join"
	"sgxbench/internal/mem"
	"sgxbench/internal/obs"
	"sgxbench/internal/rel"
	"sgxbench/internal/scan"
)

// DefaultLimit is the ORDER BY ... LIMIT row count when Options.Limit
// is zero, and the per-thread top-k capacity NewScratch provisions.
const DefaultLimit = 1024

// Dataset is the star-schema corpus the pipelines run over: a dimension
// relation (unique keys), a fact relation (foreign keys into the
// dimension, payload = row id), and a byte filter column aligned with
// the fact rows (the selectivity knob of the scan stage). Snowflake
// queries extend the star with Extra chain dimensions (EnsureChain).
type Dataset struct {
	Dim    *rel.Relation
	Fact   *rel.Relation
	Filter *mem.U8Buf
	// Extra holds the snowflake chain levels beyond Dim: level i's keys
	// are the 1-based encoding of level i-1's payload domain (Dim is
	// level 0). Allocated lazily by EnsureChain; nil for star queries.
	Extra []*rel.Relation
	// Seed is the generator seed the dataset was built from; EnsureChain
	// derives the chain levels' seeds from it.
	Seed uint64
}

// GenDataset allocates and fills a dataset in env's data region.
// Deterministic in seed.
func GenDataset(env *core.Env, nDim, nFact int, seed uint64) *Dataset {
	dim, fact := rel.GenFKPair(env.Space, nDim, nFact, env.DataRegion(), seed)
	filter := env.Space.AllocU8("q.filter", nFact, env.DataRegion())
	scan.GenColumn(filter, seed^0x9e3779b97f4a7c15)
	return &Dataset{Dim: dim, Fact: fact, Filter: filter, Seed: seed}
}

// EnsureChain extends ds with snowflake dimensions until `extra` chain
// levels exist beyond Dim. Each level has Dim's row count, unique keys
// 1..n in random order, payload = row id — so a swap-projected join
// output (key = previous level's payload + 1) probes it as a foreign
// key. Lazy and idempotent: repeated runs over the same Dataset reuse
// the levels, keeping simulated addresses deterministic.
func EnsureChain(env *core.Env, ds *Dataset, extra int) {
	for len(ds.Extra) < extra {
		i := len(ds.Extra)
		name := fmt.Sprintf("D%d", i+2)
		seed := ds.Seed ^ 0xd1b54a32d192ed03*uint64(i+2)
		ds.Extra = append(ds.Extra, rel.GenDim(env.Space, name, ds.Dim.N(), env.DataRegion(), seed))
	}
}

// dim returns the join build side at chain level (0 = Dim).
func (ds *Dataset) dim(level int) *rel.Relation {
	if level == 0 {
		return ds.Dim
	}
	return ds.Extra[level-1]
}

// Options configures a pipeline run.
type Options struct {
	// Threads is the number of worker threads (default 1).
	Threads int
	// Pred is the fact filter predicate (the Filter node's knob).
	Pred scan.Predicate
	// MaxRows caps the filtered rows fed downstream (0: no cap) — the
	// benchmark knob bounding the expensive random-access stages.
	MaxRows int
	// Limit is the ORDER BY ... LIMIT row count (0: DefaultLimit).
	Limit int
	// Scratch provides pre-allocated intermediates; repeated runs over
	// the same Scratch see identical simulated addresses (benchmark
	// repetitions, golden gates). Nil allocates internally.
	Scratch *Scratch
	// Profiler, when set, receives the run's cycle-attribution tree:
	// one scope per pipeline stage, one leaf per exec phase with the
	// engine's cycle attribution. Purely observational — attaching a
	// profiler changes no simulated cycle or check value.
	Profiler *obs.Profiler
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// limitRows resolves the effective LIMIT under the scratch capacity.
func (o Options) limitRows() int {
	if o.Limit > 0 {
		return o.Limit
	}
	return DefaultLimit
}

// Scratch holds a pipeline's pre-allocated intermediates. The paper
// pre-allocates result memory; pipelines extend that convention to every
// inter-stage buffer so repetitions never re-fault fresh pages.
type Scratch struct {
	IDs     *mem.U64Buf   // row-id scan output
	FTup    *mem.U64Buf   // filtered fact tuples
	JoinOut []*mem.U64Buf // per-thread materialized join outputs
	AggOut  *mem.U64Buf   // group entries
	AggPart *mem.U64Buf   // group-by partition intermediate
	// Sort-shape intermediates (Sort/TopK/MergeJoin nodes), allocated
	// lazily on first use so the hash-shape pipelines' working sets —
	// and serve.Calibrate's per-class page counts, which drive the EDMM
	// commit costs — never carry sort scratch they don't touch. Once
	// allocated they are reused, so repeated runs still see identical
	// simulated addresses. The fact-side sort triple is sized like FTup
	// (maxRows), the dim side for the full dimension; the top-k triple
	// for up to topK rows per thread.
	FactSort, FactTmp, FactSorted *mem.U64Buf // fact-stream work / ping-pong / sorted
	DimSort, DimTmp, DimSorted    *mem.U64Buf // dim work / ping-pong / sorted
	TopKHeap, TopKTmp             *mem.U64Buf // per-thread heaps + final-sort ping-pong
	TopKOut                       *mem.U64Buf // emitted LIMIT rows
	Swap                          *mem.U64Buf // Project node's contiguous swap output
	cap                           int
	topK                          int
}

// NewScratch pre-allocates intermediates for pipelines over ds with the
// given thread count; maxRows bounds the rows any stage materializes
// (use the fact row count when no MaxRows cap is applied).
func NewScratch(env *core.Env, ds *Dataset, threads, maxRows int) *Scratch {
	if threads < 1 {
		threads = 1
	}
	if maxRows < 1 {
		maxRows = 1
	}
	reg := env.DataRegion()
	topK := DefaultLimit
	if topK > maxRows {
		topK = maxRows
	}
	sc := &Scratch{
		IDs:     env.Space.AllocU64("q.ids", ds.Fact.N()+64, reg),
		FTup:    env.Space.AllocU64("q.ftup", maxRows, reg),
		JoinOut: make([]*mem.U64Buf, threads),
		AggOut:  env.Space.AllocU64("q.agg.out", agg.EntryWords*maxRows, reg),
		AggPart: env.Space.AllocU64("q.agg.parts", maxRows, reg),
		cap:     maxRows,
		topK:    topK,
	}
	for i := range sc.JoinOut {
		sc.JoinOut[i] = env.Space.AllocU64(fmt.Sprintf("q.join.out.%d", i), maxRows, reg)
	}
	return sc
}

// ensureSort allocates the sort triples on first use (in the pipeline's
// setup path, before any timed phase, so addresses stay deterministic).
func (sc *Scratch) ensureSort(env *core.Env, ds *Dataset) {
	if sc.FactSort != nil {
		return
	}
	reg := env.DataRegion()
	sc.FactSort = env.Space.AllocU64("q.fact.work", sc.cap, reg)
	sc.FactTmp = env.Space.AllocU64("q.fact.tmp", sc.cap, reg)
	sc.FactSorted = env.Space.AllocU64("q.fact.sorted", sc.cap, reg)
	sc.DimSort = env.Space.AllocU64("q.dim.work", ds.Dim.N(), reg)
	sc.DimTmp = env.Space.AllocU64("q.dim.tmp", ds.Dim.N(), reg)
	sc.DimSorted = env.Space.AllocU64("q.dim.sorted", ds.Dim.N(), reg)
}

// ensureTopK allocates the top-k triple on first use, and grows it when
// a LIMIT beyond the provisioned DefaultLimit capacity needs more heap
// rows per thread (the re-allocation advances simulated addresses once,
// exactly like the operator-internal fallback it replaces, but keeps
// repetitions over the same Scratch deterministic afterwards).
func (sc *Scratch) ensureTopK(env *core.Env, threads, k int) {
	if threads < 1 {
		threads = 1
	}
	if k < sc.topK {
		k = sc.topK
	}
	if sc.TopKHeap != nil && sc.TopKHeap.Len() >= threads*k && sc.TopKOut.Len() >= k {
		return
	}
	reg := env.DataRegion()
	sc.TopKHeap = env.Space.AllocU64("q.topk.heap", threads*k, reg)
	sc.TopKTmp = env.Space.AllocU64("q.topk.tmp", threads*k, reg)
	sc.TopKOut = env.Space.AllocU64("q.topk.out", k, reg)
}

// ensureSwap allocates the Project node's contiguous output on first use.
func (sc *Scratch) ensureSwap(env *core.Env) {
	if sc.Swap != nil {
		return
	}
	sc.Swap = env.Space.AllocU64("q.swap", sc.cap, env.DataRegion())
}

// StageStats reports one pipeline stage.
type StageStats struct {
	Name       string
	WallCycles uint64
	Rows       uint64 // rows the stage produced
}

// Result reports a completed pipeline.
type Result struct {
	Pipeline   string
	WallCycles uint64
	Rows       uint64 // rows flowing into the final stage
	Groups     int
	// Check is the deterministic checksum benchmarks and golden gates
	// compare: stage cardinalities folded with the aggregate checksum.
	Check  uint64
	Stages []StageStats
	Phases []exec.PhaseStats
	Stats  engine.Stats
	// TopRows holds an ORDER BY query's emitted LIMIT rows in key order
	// (nil for the aggregation-shaped pipelines).
	TopRows []uint64
}

// scratch returns the options' Scratch, allocating one when absent.
func (o Options) scratch(env *core.Env, ds *Dataset) *Scratch {
	if o.Scratch != nil {
		return o.Scratch
	}
	maxRows := ds.Fact.N()
	if o.MaxRows > 0 && o.MaxRows < maxRows {
		maxRows = o.MaxRows
	}
	return NewScratch(env, ds, o.threads(), maxRows)
}

// profiled attaches opt.Profiler (when set) to the group and opens the
// pipeline's own scope, so stage scopes and phase leaves nest under the
// pipeline name. The returned closer pops the scope; with no profiler
// everything is a no-op:
//
//	defer profiled(g, opt, name)()
func profiled(g *exec.Group, opt Options, name string) func() {
	if opt.Profiler == nil {
		return func() {}
	}
	g.AttachProfiler(opt.Profiler)
	return g.Scope(name)
}

// capRuns truncates the per-thread id runs, in order, to at most maxN
// total rows; it returns the capped runs and their row total.
func capRuns(runs []scan.IDRun, maxN int) ([]scan.IDRun, int) {
	out := make([]scan.IDRun, 0, len(runs))
	n := 0
	for _, r := range runs {
		if r.Count > maxN-n {
			r.Count = maxN - n
		}
		out = append(out, r)
		n += r.Count
	}
	return out, n
}

// joinSegments maps a materialized join result onto the aggregation's
// input segments: one per thread, backed by the pre-allocated output
// buffer. Rows past a buffer's capacity spilled to dynamically claimed
// chunks at non-deterministic addresses; they are excluded here (size
// Scratch to the workload so this never truncates — the stage row
// counts in Result.Stages expose it when it does).
func joinSegments(sc *Scratch, jr *join.Result) []agg.Input {
	segs := make([]agg.Input, 0, len(jr.Output))
	for i, rows := range jr.Output {
		n := len(rows)
		if i < len(sc.JoinOut) {
			if c := sc.JoinOut[i].Len(); n > c {
				n = c
			}
			segs = append(segs, agg.Input{Tup: sc.JoinOut[i], N: n})
		}
	}
	return segs
}

// finish seals the pipeline result from the group's full run.
func finish(g *exec.Group, res *Result) *Result {
	res.Phases = g.Phases()
	res.WallCycles = g.Clock()
	res.Stats = g.TotalStats()
	return res
}
