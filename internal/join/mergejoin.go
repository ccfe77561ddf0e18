package join

import (
	stdsort "sort"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	sortop "sgxbench/internal/sort"
)

// MergeJoinSorted merge-joins two key-sorted tables in one linear pass —
// the final stage of MWAY, exported so pipelines that sort their inputs
// as explicit stages (q5.mergejoin-agg) can run exactly the same join.
//
// R (build, nR rows) and S (probe, nS rows) must be sorted by
// sort.TupLess; duplicate keys are supported on both sides (a duplicated
// R key replays the matching S run, emitting the full cross product of
// the equal-key runs). maxKey bounds the key domain so the arithmetic
// splitters (sort.Splitter) can range-partition the pass across the
// group's threads; keys at or beyond it all land in the last range. The access pattern is two forward streams with cursor stores
// — the regime in which the SSB mitigation has nothing to serialize,
// which is why the paper's sort-merge join resists the enclave far
// better than the hash joins (Fig 3). Output rows are (S payload, R
// payload), matching the hash joins' materialization format.
func MergeJoinSorted(env *core.Env, g *exec.Group, R *mem.U64Buf, nR int, S *mem.U64Buf, nS int, maxKey uint32, opt Options) *Result {
	T := len(g.Threads)
	mark := g.Mark()
	res := &Result{Algorithm: "MergeJoin"}
	tl := make(tallies, T)
	g.Phase("MergeJoin", func(t *engine.Thread, id int) {
		loKey, hiKey := sortop.Splitter(maxKey, T, id), sortop.Splitter(maxKey, T, id+1)
		last := id == T-1
		out := tl.writer(env, id, opt)
		ri := stdsort.Search(nR, func(i int) bool { return mem.TupleKey(R.D[i]) >= loKey })
		si := stdsort.Search(nS, func(i int) bool { return mem.TupleKey(S.D[i]) >= loKey })
		// The last range is unbounded above: an exclusive hiKey could
		// never cover the maximum key.
		rEnd, sEnd := nR, nS
		if !last {
			rEnd = stdsort.Search(nR, func(i int) bool { return mem.TupleKey(R.D[i]) >= hiKey })
			sEnd = stdsort.Search(nS, func(i int) bool { return mem.TupleKey(S.D[i]) >= hiKey })
		}
		var local uint64
		var rTok, sTok engine.Tok
		// siRun tracks where the current S equal-key run starts so that a
		// duplicated R key re-joins the whole run instead of resuming past
		// it. With unique R keys the rewind never fires and the access
		// sequence is exactly the single-pass merge.
		siRun := si
		prevKey := uint32(0)
		havePrev := false
		for ri < rEnd {
			rk := mem.TupleKey(R.D[ri])
			if havePrev && rk == prevKey {
				si = siRun // duplicate build key: replay the equal probe run
			}
			if si >= sEnd {
				break // probe side exhausted (after any rewind)
			}
			if ri%8 == 0 {
				rTok = engine.LoadLine(t, &R.Buffer, int64(ri)*8, 0)
			}
			// Advance S over smaller keys, counting matches on equality.
			// siRun lands on the first non-smaller probe row, so a
			// duplicate build key replays exactly the equal run — never
			// the smaller keys skipped before it.
			seenRun := false
			for si < sEnd {
				if si%8 == 0 {
					sTok = engine.LoadLine(t, &S.Buffer, int64(si)*8, 0)
				}
				sk := mem.TupleKey(S.D[si])
				t.Work(1)
				if sk < rk {
					si++
					continue
				}
				if !seenRun {
					siRun = si
					seenRun = true
				}
				if sk > rk {
					break
				}
				local++
				if out != nil {
					dep := rTok
					if sTok > dep {
						dep = sTok
					}
					out.append(t, mem.MakeTuple(mem.TuplePayload(S.D[si]), mem.TuplePayload(R.D[ri])), engine.After(dep, 1))
				}
				si++
			}
			if !seenRun {
				siRun = si // probe side exhausted below rk
			}
			prevKey, havePrev = rk, true
			ri++
			t.Work(1)
		}
		tl[id].matches = local
	})
	tl.fold(res, opt)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}
