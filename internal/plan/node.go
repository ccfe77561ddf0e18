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
// (Scan), a contiguous tuple stream (Filter/Sort/Project), or the
// per-thread segments of a materialized join.
type Stream struct {
	Rel  *rel.Relation // base table (Scan); nil downstream
	Tup  *mem.U64Buf   // contiguous tuples
	N    int           // row count
	Segs []agg.Input   // segmented join output
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

// Filter is σ(fact) materialized, a leaf like Scan: a row-id scan over
// the filter column with Options.Pred, then a gather of the qualifying
// rows' fact tuples, densely packed in per-thread run order (the
// data-dependent random-access stage). Each stage keeps its own stage
// and profile scope, "filter" then "gather".
type Filter struct{}

// Exec runs the row-id scan and the tuple gather.
func (Filter) Exec(ctx *Context) Stream {
	closeFilter := ctx.G.Scope("filter")
	sr := scan.RunOn(ctx.Env, ctx.G, ctx.DS.Filter, scan.Options{Pred: ctx.Opt.Pred, RowIDs: true, IDs: ctx.SC.IDs})
	closeFilter()
	ctx.stage("filter", sr.WallCycles, sr.Matches, sr.Matches)
	maxN := ctx.SC.FTup.Len()
	if ctx.Opt.MaxRows > 0 && ctx.Opt.MaxRows < maxN {
		maxN = ctx.Opt.MaxRows
	}
	runs, n := capRuns(sr.IDRuns, maxN)
	closeGather := ctx.G.Scope("gather")
	gr := scan.GatherU64On(ctx.Env, ctx.G, ctx.DS.Fact.Tup, ctx.SC.IDs, runs, ctx.SC.FTup)
	closeGather()
	ctx.stage("gather", gr.WallCycles, uint64(n), gr.Sum)
	return Stream{Tup: ctx.SC.FTup, N: n}
}

// joinRunner is the slice of the join algorithms Join drives: every
// algorithm that can execute on a caller-owned group.
type joinRunner interface {
	RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt join.Options) (*join.Result, error)
}

// Join probes the chain-level dimension with one materializing FK join
// on the shared group, under strategy Alg: the radix-partitioned RHO
// (JoinRHO, the default), the paper's no-partitioning shared-table PHT
// (JoinPHT), an index nested loop over a pre-built B+-tree (JoinINL: no
// build cost, but every lookup is a chain of dependent random reads),
// or the spill-partitioned GRACE (JoinGrace), which stages partition
// runs in untrusted memory under an EPC capacity limit.
type Join struct {
	Input Node
	Alg   string // join strategy id
	Level int    // dimension chain level (0 = Dim)
}

// Exec runs the join.
func (j Join) Exec(ctx *Context) Stream {
	var alg joinRunner
	switch j.Alg {
	case JoinPHT:
		alg = join.NewPHT()
	case JoinINL:
		alg = join.NewINL()
	case JoinGrace:
		alg = join.NewGrace()
	default:
		alg = join.NewRHO()
	}
	in := j.Input.Exec(ctx)
	build := ctx.DS.dim(j.Level)
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
// input stream or join segments (SUM/COUNT/MIN/MAX per group). With
// Spill it runs the spill-partitioned aggregation instead, which stages
// partition runs in untrusted memory under an EPC capacity limit; its
// staging buffers' simulated ranges are operator-internal, and the first
// one borrows the host words of the Scratch's partition intermediate,
// which no other node of a spill query touches.
type GroupBy struct {
	Input Node
	Sel   agg.Sel // group key selector (ByKey or ByPayload)
	Spill bool    // spill aggregation instead of the resident one
}

// Exec runs the aggregation.
func (gb GroupBy) Exec(ctx *Context) Stream {
	in := gb.Input.Exec(ctx)
	ins := in.aggInputs()
	rows := 0
	for _, seg := range ins {
		rows += seg.N
	}
	opt := agg.Options{Sel: gb.Sel, Groups: ctx.DS.Dim.N(), Out: ctx.SC.AggOut, Parts: ctx.SC.AggPart}
	closeAgg := ctx.G.Scope("agg")
	var ar *agg.Result
	if gb.Spill {
		ar = agg.SpillRunOn(ctx.Env, ctx.G, ins, opt)
	} else {
		ar = agg.RunOn(ctx.Env, ctx.G, ins, opt)
	}
	closeAgg()
	ctx.stage("agg", ar.WallCycles, uint64(ar.Groups), ar.Check)
	ctx.Res.Rows = uint64(rows)
	ctx.Res.Groups = ar.Groups
	return Stream{}
}
