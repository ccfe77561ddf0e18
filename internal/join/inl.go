package join

import (
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

	// Pre-built index (setup, untimed).
	pairs := make([]btree.KV, build.N())
	for i := range pairs {
		pairs[i] = btree.KV{K: build.Key(i), V: build.Payload(i)}
	}
	idx := btree.BulkLoad(env.Space, "inl.index", pairs, env.DataRegion())

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
