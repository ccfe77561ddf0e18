package join

import (
	"sync"

	"sgxbench/internal/btree"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// INL is the Index Nested Loop join [27]: an existing B+-tree index over
// the build side is probed once per probe row. Every descent is a chain
// of dependent random reads, so the index side cannot exploit memory-
// level parallelism — INL is slow in absolute terms and suffers the
// random-access enclave overhead of Section 4.1, but no SSB penalty
// (lookups store nothing).
//
// As in the paper, the index is pre-built ("uses an existing B-Tree
// index"): construction is not part of the measured join time.
type INL struct{}

// NewINL returns the INL algorithm.
func NewINL() *INL { return &INL{} }

// Name returns the paper's name for the algorithm.
func (*INL) Name() string { return "INL" }

// Run executes the join.
func (n *INL) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return n.RunOn(env, g, build, probe, opt)
}

// RunOn executes the join on an existing thread group (pipeline stage
// composition: simulated cache/TLB state carries over from the previous
// stage). Options.Threads is ignored; the group decides it.
// Result timing and stats cover only this stage's phases.
func (n *INL) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := len(g.Threads)
	mark := g.Mark()
	res := &Result{Algorithm: n.Name()}

	// Pre-built index (setup, untimed). Its pairs live in recycled host
	// words, handed back when the probe is done with the tree.
	w := getIndexWords()
	defer indexPool.Put(w)
	w.keys, w.vals = mem.Reuse(w.keys, build.N()), mem.Reuse(w.vals, build.N())
	for i := range w.keys {
		w.keys[i], w.vals[i] = build.Key(i), build.Payload(i)
	}
	idx := btree.BulkLoad(env.Space, "inl.index", w.keys, w.vals, env.DataRegion())

	tl := make(tallies, T)
	ps := g.Phase("Probe", func(t *engine.Thread, id int) {
		lo, hi := exec.Chunk(probe.N(), T, id)
		out := tl.writer(env, id, opt)
		var local uint64
		var vals []uint32
		for i := lo; i < hi; i++ {
			tup, tok := engine.LoadU64(t, probe.Tup, i, 0)
			key := mem.TupleKey(tup)
			vals = vals[:0]
			var leafTok engine.Tok
			vals, leafTok = idx.LookupAll(t, key, tok, vals)
			local += uint64(len(vals))
			if out != nil {
				for _, v := range vals {
					out.append(t, mem.MakeTuple(mem.TuplePayload(tup), v), leafTok)
				}
			}
		}
		tl[id].matches = local
	})
	res.ProbeCycles = ps.WallCycles
	tl.fold(res, opt)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res, nil
}

// indexWords are the host words behind one INL call's index: the key and
// value slices btree.BulkLoad takes and sorts. The tree lives only as
// long as RunOn (Result holds nothing of it), so RunOn hands the words
// back to indexPool when it returns, as internal/agg recycles its
// group-by words. They come back dirty, which no reader sees: RunOn
// writes all build.N() pairs before the sort reads them. The node
// arenas are Space.Alloc ranges made on every call, so no simulated
// address depends on what the pool held.
type indexWords struct{ keys, vals []uint32 }

// indexPool holds finished INL calls' index words. It is process-wide,
// and the garbage collector may empty it.
var indexPool sync.Pool

// getIndexWords returns a finished call's index words, or empty ones when
// the pool is empty.
func getIndexWords() *indexWords {
	if w, ok := indexPool.Get().(*indexWords); ok {
		return w
	}
	return new(indexWords)
}
