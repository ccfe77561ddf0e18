package join

import (
	"sgxbench/internal/core"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
	sortop "sgxbench/internal/sort"
)

// MWAY is the Multi-Way Sort Merge join (Kim et al. [21], TEEBench's
// m-way): both inputs are sorted — per-thread cache-sized runs merged by
// a multi-way loser tree — and then merge-joined in one linear pass.
// Its memory behaviour is dominated by sequential streams plus compare
// work, so the SSB mitigation barely affects it: stores go to cursor
// positions known ahead of time. This is why MWAY shows a much smaller
// enclave slowdown than the hash joins in Fig 3.
//
// The implementation composes the operator layers directly: each input
// is sorted with internal/sort's parallel run-sort + multi-way merge
// (the m-way charging model lives there), and the sorted tables are
// joined with MergeJoinSorted — exactly the stages the q5 pipeline runs,
// so the standalone join and the pipeline share one timing model.
type MWAY struct{}

// NewMWAY returns the MWAY algorithm.
func NewMWAY() *MWAY { return &MWAY{} }

// Name returns the paper's name for the algorithm.
func (*MWAY) Name() string { return "MWAY" }

// Run executes the join.
func (m *MWAY) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return m.RunOn(env, g, build, probe, opt)
}

// RunOn executes the join on an existing thread group (pipeline stage
// composition; see RHO.RunOn). Options.Threads is ignored;
// Result timing and stats cover only this join's phases.
func (m *MWAY) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	mark := g.Mark()
	res := &Result{Algorithm: m.Name()}
	reg := env.DataRegion()
	runLen := sortop.RunLen(env)
	// Key space is [1, nBuild+1) (unique build keys), so arithmetic
	// splitters keep the merge and join ranges balanced; correctness
	// holds for any distribution.
	maxKey := uint32(build.N() + 1)

	type table struct {
		work *mem.U64Buf // per-thread chunk work area (sorted in place)
		tmp  *mem.U64Buf // ping-pong buffer
		out  *mem.U64Buf // globally sorted result
		n    int
	}
	mk := func(r *rel.Relation, name string) *table {
		tb := &table{
			work: env.Space.AllocU64(name+".work", r.N(), reg),
			tmp:  env.Space.AllocU64(name+".tmp", r.N(), reg),
			out:  env.Space.AllocU64(name+".sorted", r.N(), reg),
			n:    r.N(),
		}
		copy(tb.work.D, r.Tup.D) // untimed setup copy; timed passes stream it below
		return tb
	}
	R, S := mk(build, "R"), mk(probe, "S")

	// --- Sort both tables (chunk sort + multi-way merge each) ---
	for _, tb := range []*table{R, S} {
		sortop.RunOn(env, g, tb.work, tb.n, sortop.Options{
			MaxKey: maxKey, RunLen: runLen, Tmp: tb.tmp, Out: tb.out,
			SkipCheck: true, // the join result carries its own checks
		})
	}

	// --- Merge join over the sorted tables ---
	// (MergeJoinSorted folds any serialized allocation cycles into the
	// group clock itself; nothing allocates after it.)
	jr := MergeJoinSorted(env, g, R.out, R.n, S.out, S.n, maxKey, opt)
	res.Matches = jr.Matches
	res.Output = jr.Output

	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res, nil
}
