package plan

import (
	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/join"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
	"sgxbench/internal/rng"
	"sgxbench/internal/scan"
	sortop "sgxbench/internal/sort"
)

// Context is the shared execution state a plan tree runs in: one Env,
// one exec.Group (so simulated cache/TLB state carries across node
// boundaries), one Scratch, and the Result the nodes fold stage stats
// and checksums into.
type Context struct {
	Env *core.Env
	G   *exec.Group
	DS  *Dataset
	SC  *Scratch
	Opt Options
	Res *Result
}

// Stream is the data flowing between plan nodes: a base relation
// (Scan), a contiguous tuple stream (Gather/Sort/Project), or the
// per-thread segments of a materialized join.
type Stream struct {
	Rel  *rel.Relation // base table (Scan); nil downstream
	Tup  *mem.U64Buf   // contiguous tuples
	N    int           // row count
	Segs []agg.Input   // segmented join output
	ids  *mem.U64Buf   // row-id list (Filter)
	runs []scan.IDRun  // per-thread id runs (Filter)
}

// aggInputs adapts the stream to the aggregation operators' segment
// form: the join segments when present, else the contiguous stream.
func (s Stream) aggInputs() []agg.Input {
	if s.Segs != nil {
		return s.Segs
	}
	return []agg.Input{{Tup: s.Tup, N: s.N}}
}

// probeRel adapts the stream to a join probe side: the base table
// itself for an unfiltered scan, else a view of the contiguous stream
// (named S' after the filtered fact side of the star query).
func (s Stream) probeRel() *rel.Relation {
	if s.Rel != nil {
		return s.Rel
	}
	return &rel.Relation{Name: "S'", Tup: s.Tup.View(s.N)}
}

// Node is one operator of a plan tree. Exec pulls the input stream from
// the child, runs this node's engine phases on ctx.G, folds its stage
// stats and checksum contribution into ctx.Res, and returns the output
// stream.
type Node interface {
	Exec(ctx *Context) Stream
}

// Execute runs a plan tree as a pipeline: one group, one scratch, one
// result — the same prologue/epilogue as the hand-wired pipelines it
// replaces.
func Execute(env *core.Env, ds *Dataset, opt Options, name string, root Node) *Result {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	sc := opt.scratch(env, ds)
	defer profiled(g, opt, name)()
	res := &Result{Pipeline: name, Check: rng.FNVOffset64}
	ctx := &Context{Env: env, G: g, DS: ds, SC: sc, Opt: opt, Res: res}
	root.Exec(ctx)
	res.Phases, res.Stats, res.WallCycles = g.Since(exec.Mark{})
	return res
}

// stage folds one completed stage into the result.
func (ctx *Context) stage(name string, wall uint64, rows uint64, check uint64) {
	ctx.Res.Stages = append(ctx.Res.Stages, StageStats{Name: name, WallCycles: wall, Rows: rows})
	ctx.Res.Check = rng.FNVMix(ctx.Res.Check, check)
}

// Scan streams a base relation (the fact table). Untimed leaf: the
// downstream operators read base tables in place.
type Scan struct{}

// Exec returns the fact table as a stream.
func (Scan) Exec(ctx *Context) Stream {
	return Stream{Rel: ctx.DS.Fact, Tup: ctx.DS.Fact.Tup, N: ctx.DS.Fact.N()}
}

// Filter is σ(fact): a row-id scan over the filter column with
// Options.Pred, emitting the qualifying row ids as per-thread runs.
type Filter struct{ Input Node }

// Exec runs the row-id scan.
func (f Filter) Exec(ctx *Context) Stream {
	in := f.Input.Exec(ctx)
	closeFilter := ctx.G.Scope("filter")
	sr := scan.RunOn(ctx.Env, ctx.G, ctx.DS.Filter, scan.Options{Pred: ctx.Opt.Pred, RowIDs: true, IDs: ctx.SC.IDs})
	closeFilter()
	ctx.stage("filter", sr.WallCycles, sr.Matches, sr.Matches)
	return Stream{Rel: in.Rel, N: int(sr.Matches), ids: ctx.SC.IDs, runs: sr.IDRuns}
}

// Gather materializes the filtered rows: fetches the base table's
// tuples at the filter's row ids, densely packed in per-thread run
// order (the data-dependent random-access stage).
type Gather struct{ Input Node }

// Exec runs the tuple gather.
func (gn Gather) Exec(ctx *Context) Stream {
	in := gn.Input.Exec(ctx)
	maxN := ctx.SC.FTup.Len()
	if ctx.Opt.MaxRows > 0 && ctx.Opt.MaxRows < maxN {
		maxN = ctx.Opt.MaxRows
	}
	runs, n := capRuns(in.runs, maxN)
	closeGather := ctx.G.Scope("gather")
	gr := scan.GatherU64On(ctx.Env, ctx.G, in.Rel.Tup, in.ids, runs, ctx.SC.FTup)
	closeGather()
	ctx.stage("gather", gr.WallCycles, uint64(n), gr.Sum)
	return Stream{Tup: ctx.SC.FTup, N: n}
}

// joinRunner is the slice of the join algorithms the nodes drive: every
// algorithm that can execute on a caller-owned group.
type joinRunner interface {
	Name() string
	RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt join.Options) (*join.Result, error)
}

// execJoin runs one materializing FK join of the input stream against
// the chain-level dimension on the shared group.
func execJoin(ctx *Context, alg joinRunner, in Stream, level int) Stream {
	build := ctx.DS.dim(level)
	probe := in.probeRel()
	closeJoin := ctx.G.Scope("join")
	jr, err := alg.RunOn(ctx.Env, ctx.G, build, probe, join.Options{
		Optimized: true, Materialize: true, OutBufs: ctx.SC.JoinOut,
	})
	closeJoin()
	if err != nil {
		panic(err)
	}
	return joinStream(ctx, jr)
}

// HashJoin probes the chain-level dimension with a hash join: the
// radix-partitioned RHO by default, or the shared-table PHT (the
// paper's no-partitioning join) when Shared is set.
type HashJoin struct {
	Input  Node
	Shared bool // PHT instead of RHO
	Level  int  // dimension chain level (0 = Dim)
}

// Exec runs the hash join.
func (h HashJoin) Exec(ctx *Context) Stream {
	var alg joinRunner = join.NewRHO()
	if h.Shared {
		alg = join.NewPHT()
	}
	return execJoin(ctx, alg, h.Input.Exec(ctx), h.Level)
}

// INLJoin probes a pre-built B+-tree index over the chain-level
// dimension once per input row: no build cost, but every lookup is a
// chain of dependent random reads — the strategy the planner picks when
// very few rows survive the filter.
type INLJoin struct {
	Input Node
	Level int
}

// Exec runs the index nested loop join.
func (n INLJoin) Exec(ctx *Context) Stream {
	return execJoin(ctx, join.NewINL(), n.Input.Exec(ctx), n.Level)
}

// GraceJoin probes the chain-level dimension with the spill-partitioned
// GRACE join, which stages partition runs in untrusted memory under an
// EPC capacity limit and degrades gracefully when the working set
// outgrows the enclave.
type GraceJoin struct {
	Input Node
	Level int
}

// Exec runs the grace join.
func (gj GraceJoin) Exec(ctx *Context) Stream {
	return execJoin(ctx, join.NewGrace(), gj.Input.Exec(ctx), gj.Level)
}

// sortTuples sorts n tuples from tup into a scratch (or fallback)
// triple and returns the sorted buffer, folding a "sort-<label>" stage.
// The fallback fires when the provided triple is nil or undersized (a
// MaxRows-capped scratch reused across shapes); its buffer names keep
// the q5 prefix the convention was established under.
func sortTuples(ctx *Context, label string, tup *mem.U64Buf, n int, work, tmp, out *mem.U64Buf, maxKey uint32) *mem.U64Buf {
	if work == nil || tmp == nil || out == nil || work.Len() < n || tmp.Len() < n || out.Len() < n {
		reg := ctx.Env.DataRegion()
		work = ctx.Env.Space.AllocU64("q5."+label+".work", n, reg)
		tmp = ctx.Env.Space.AllocU64("q5."+label+".tmp", n, reg)
		out = ctx.Env.Space.AllocU64("q5."+label+".sorted", n, reg)
	}
	copy(work.D[:n], tup.D) // untimed setup copy; timed passes stream it
	closeSort := ctx.G.Scope("sort-" + label)
	sr := sortop.RunOn(ctx.Env, ctx.G, work, n, sortop.Options{
		MaxKey: maxKey, Tmp: tmp, Out: out,
	})
	closeSort()
	ctx.stage("sort-"+label, sr.WallCycles, uint64(n), sr.Check)
	return out
}

// MergeJoin is the sort-based join: sorts the input stream and the
// dimension as explicit pipeline stages, then merge-joins the sorted
// runs (MWAY's final pass) into the per-thread output buffers. The
// sequential-stream regime that loses far less to the enclave than the
// hash joins. Chain level 0 only.
type MergeJoin struct{ Input Node }

// Exec runs sort(input), sort(dim), then the merge join.
func (m MergeJoin) Exec(ctx *Context) Stream {
	in := m.Input.Exec(ctx)
	ds, sc := ctx.DS, ctx.SC
	sc.ensureSort(ctx.Env, ds)
	maxKey := uint32(ds.Dim.N() + 1)
	factSorted := sortTuples(ctx, "fact", in.Tup, in.N, sc.FactSort, sc.FactTmp, sc.FactSorted, maxKey)
	dimSorted := sortTuples(ctx, "dim", ds.Dim.Tup, ds.Dim.N(), sc.DimSort, sc.DimTmp, sc.DimSorted, maxKey)
	closeJoin := ctx.G.Scope("join")
	jr := join.MergeJoinSorted(ctx.Env, ctx.G, dimSorted, ds.Dim.N(), factSorted, in.N, maxKey, join.Options{
		Materialize: true, OutBufs: sc.JoinOut,
	})
	closeJoin()
	return joinStream(ctx, jr)
}

// projectBlock is the number of tuples swapped per engine batch.
const projectBlock = 64

// Project materializes a segmented join output into one contiguous
// stream, swapping each tuple's halves and re-encoding the build
// attribute as a 1-based key: (k, p) → (p+1, k). The output stream is
// keyed by the joined dimension's attribute, ready for the next chain
// level's FK probe or an ORDER BY on the attribute.
type Project struct{ Input Node }

// Exec runs the streaming swap.
func (p Project) Exec(ctx *Context) Stream {
	in := p.Input.Exec(ctx)
	sc := ctx.SC
	sc.ensureSwap(ctx.Env)
	segs := in.Segs
	outBase := make([]int, len(segs)+1)
	total := 0
	for i, s := range segs {
		n := s.N
		if total+n > sc.Swap.Len() {
			n = sc.Swap.Len() - total
		}
		total += n
		outBase[i+1] = total
	}
	out := sc.Swap
	T := len(ctx.G.Threads)
	closeProj := ctx.G.Scope("project")
	ps := ctx.G.Phase("Swap", func(t *engine.Thread, id int) {
		var toks [projectBlock]engine.Tok
		// Thread i owns segment i; surplus segments are claimed
		// round-robin (the gather stage's convention).
		for s := id; s < len(segs); s += T {
			seg := segs[s]
			for done := 0; done < outBase[s+1]-outBase[s]; {
				blk := outBase[s+1] - outBase[s] - done
				if blk > projectBlock {
					blk = projectBlock
				}
				pos := done
				outPos := outBase[s] + done
				// Sequential tuple reads, register swap, sequential writes.
				t.LoadRunToks(&seg.Tup.Buffer, seg.Tup.Off(pos), 8, blk, 0, toks[:blk])
				for j := 0; j < blk; j++ {
					v := seg.Tup.D[pos+j]
					out.D[outPos+j] = mem.MakeTuple(mem.TuplePayload(v)+1, mem.TupleKey(v))
				}
				t.Work(uint64(blk)) // swap/pack the lanes
				t.StoreRun(&out.Buffer, out.Off(outPos), 8, blk, 0, engine.After(toks[blk-1], 1))
				done += blk
			}
		}
	})
	closeProj()
	ctx.stage("project", ps.WallCycles, uint64(total), uint64(total))
	return Stream{Tup: out, N: total}
}

// Sort is the full ORDER BY: sorts the contiguous input stream by key
// (the run-sort + multi-way merge operator). The emitted stream is the
// whole input in ascending key order.
type Sort struct{ Input Node }

// Exec runs the sort.
func (s Sort) Exec(ctx *Context) Stream {
	in := s.Input.Exec(ctx)
	ds, sc := ctx.DS, ctx.SC
	sc.ensureSort(ctx.Env, ds)
	maxKey := uint32(ds.Dim.N() + 1)
	out := sortTuples(ctx, "fact", in.Tup, in.N, sc.FactSort, sc.FactTmp, sc.FactSorted, maxKey)
	ctx.Res.Rows = uint64(in.N)
	ctx.Res.Groups = in.N
	return Stream{Tup: out, N: in.N}
}

// TopK is ORDER BY key LIMIT k on the heap-based top-k operator: each
// thread keeps a k-row heap, the survivors merge and sort. Result.Groups
// reports the emitted row count and Result.TopRows the rows themselves.
type TopK struct{ Input Node }

// Exec runs the top-k.
func (tk TopK) Exec(ctx *Context) Stream {
	in := tk.Input.Exec(ctx)
	sc := ctx.SC
	n := in.N
	k := ctx.Opt.limitRows()
	if k > n {
		k = n // TopKOn clamps anyway; clamp first so the scratch sizing
		// below sees the effective k, not the nominal LIMIT
	}
	sc.ensureTopK(ctx.Env, len(ctx.G.Threads), k)
	topt := sortop.TopKOptions{Heap: sc.TopKHeap, Tmp: sc.TopKTmp, Out: sc.TopKOut}
	closeTopK := ctx.G.Scope("topk")
	tr := sortop.TopKOn(ctx.Env, ctx.G, in.Tup, n, k, topt)
	closeTopK()
	ctx.stage("topk", tr.WallCycles, uint64(tr.K), tr.Check)
	ctx.Res.Rows = uint64(n)
	ctx.Res.Groups = tr.K
	ctx.Res.TopRows = append([]uint64(nil), tr.Out.D[:tr.K]...)
	return Stream{Tup: tr.Out, N: tr.K}
}

// Limit truncates a sorted contiguous stream to its first K rows
// (ORDER BY ... LIMIT executed as full sort + cutoff — the naive
// alternative the planner weighs against the heap-based TopK). Pure
// bookkeeping: the rows past the cutoff are simply never read.
type Limit struct{ Input Node }

// Exec truncates the stream.
func (l Limit) Exec(ctx *Context) Stream {
	in := l.Input.Exec(ctx)
	k := ctx.Opt.limitRows()
	if k > in.N {
		k = in.N
	}
	ctx.Res.Check = rng.FNVMix(ctx.Res.Check, uint64(k))
	ctx.Res.Groups = k
	ctx.Res.TopRows = append([]uint64(nil), in.Tup.D[:k]...)
	return Stream{Tup: in.Tup, N: k}
}

// GroupBy is the final γ: the partitioned hash aggregation over the
// input stream or join segments (SUM/COUNT/MIN/MAX per group).
type GroupBy struct {
	Input Node
	Sel   agg.Sel // group key selector (ByKey or ByPayload)
}

// Exec runs the aggregation.
func (gb GroupBy) Exec(ctx *Context) Stream {
	in := gb.Input.Exec(ctx)
	ins := in.aggInputs()
	rows := 0
	for _, seg := range ins {
		rows += seg.N
	}
	closeAgg := ctx.G.Scope("agg")
	ar := agg.RunOn(ctx.Env, ctx.G, ins, agg.Options{
		Sel: gb.Sel, Groups: ctx.DS.Dim.N(), Out: ctx.SC.AggOut, Parts: ctx.SC.AggPart,
	})
	closeAgg()
	ctx.stage("agg", ar.WallCycles, uint64(ar.Groups), ar.Check)
	ctx.Res.Rows = uint64(rows)
	ctx.Res.Groups = ar.Groups
	return Stream{}
}

// SpillGroupBy is GroupBy on the spill-partitioned aggregation, which
// stages partition runs in untrusted memory under an EPC capacity limit.
// The staging buffers' simulated ranges are operator-internal; the first
// one borrows the host words of the Scratch's partition intermediate,
// which no other node of a spill query touches, and the output entry
// array is the Scratch's.
type SpillGroupBy struct {
	Input Node
	Sel   agg.Sel
}

// Exec runs the spill aggregation.
func (gb SpillGroupBy) Exec(ctx *Context) Stream {
	in := gb.Input.Exec(ctx)
	ins := in.aggInputs()
	rows := 0
	for _, seg := range ins {
		rows += seg.N
	}
	closeAgg := ctx.G.Scope("agg")
	ar := agg.SpillRunOn(ctx.Env, ctx.G, ins, agg.Options{
		Sel: gb.Sel, Groups: ctx.DS.Dim.N(), Out: ctx.SC.AggOut, Parts: ctx.SC.AggPart,
	})
	closeAgg()
	ctx.stage("agg", ar.WallCycles, uint64(ar.Groups), ar.Check)
	ctx.Res.Rows = uint64(rows)
	ctx.Res.Groups = ar.Groups
	return Stream{}
}
