package plan

import (
	"math"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/scan"
)

// Order strategy identifiers (Alternative.Ord values).
const (
	OrdTopK = "topk" // heap-based top-k
	OrdSort = "sort" // full sort + LIMIT cutoff
)

// Query is one declarative query: a star/snowflake shape that Tree
// lowers to a plan tree under join, aggregation and order strategies —
// the planner's cheapest, or for the seven fixed shapes (Fixed) the
// strategy the shape carries.
type Query struct {
	Name string
	// fixed, when set, is the strategy Run lowers the shape with, under
	// the caller's Options: no planning, no predicate or limit of its
	// own. The zero value means "plan it".
	fixed Alternative
	// Pred is the fact filter predicate (the selectivity knob).
	Pred scan.Predicate
	// Dims is the join chain depth: 0 (pure aggregation) to 3.
	Dims int
	// Unfiltered starts the tree at the whole fact table instead of its
	// filtered, gathered rows.
	Unfiltered bool
	// Skew marks the dataset recipe: fact foreign keys drawn
	// self-similar (80/20) instead of uniform. A dataset property — the
	// plan shape and the planner's uniform cost estimate are unchanged.
	Skew bool
	// Order requests ORDER BY (by the last joined attribute, or the
	// fact key for Dims == 0); Limit > 0 adds LIMIT.
	Order bool
	Limit int
}

// Alternative is one static strategy choice the planner weighs, or the
// one a fixed shape carries.
type Alternative struct {
	Join string // JoinRHO/JoinPHT/JoinINL/JoinMerge/JoinGrace ("" when Dims == 0)
	Agg  string // AggHash/AggSpill ("" for ORDER BY queries)
	Ord  string // OrdTopK/OrdSort ("" for aggregation queries)
}

// String names the alternative for reports and cost maps.
func (a Alternative) String() string {
	s := ""
	for _, part := range []string{a.Join, a.Agg, a.Ord} {
		if part == "" {
			continue
		}
		if s != "" {
			s += "+"
		}
		s += part
	}
	if s == "" {
		return "direct"
	}
	return s
}

// Alternatives enumerates the static strategy choices for q, in
// deterministic order (the planner's tie-break prefers earlier
// entries). MergeJoin is enumerated for single-level joins; deeper
// chains would need a re-sort per level, which no strategy here models.
// JoinPHT is never enumerated: only a fixed shape carries it, so the
// cost model has no price for it.
func (q Query) Alternatives() []Alternative {
	joins := []string{""}
	if q.Dims > 0 {
		joins = []string{JoinRHO, JoinINL, JoinGrace}
		if q.Dims == 1 {
			joins = append(joins, JoinMerge)
		}
	}
	var finals []Alternative
	switch {
	case q.Order && q.Limit > 0:
		finals = []Alternative{{Ord: OrdTopK}, {Ord: OrdSort}}
	case q.Order:
		finals = []Alternative{{Ord: OrdSort}}
	default:
		finals = []Alternative{{Agg: AggHash}, {Agg: AggSpill}}
	}
	out := make([]Alternative, 0, len(joins)*len(finals))
	for _, j := range joins {
		for _, f := range finals {
			f.Join = j
			out = append(out, f)
		}
	}
	return out
}

// joinNode lowers one chain level's join under strategy s.
func joinNode(s string, in Node, lvl int) Node {
	if s == JoinMerge {
		return MergeJoin{Input: in}
	}
	return Join{Input: in, Alg: s, Level: lvl}
}

// Tree lowers q to a plan tree under the given strategy alternative.
func (q Query) Tree(alt Alternative) Node {
	var root Node = Filter{}
	if q.Unfiltered {
		root = Scan{}
	}
	for lvl := 0; lvl < q.Dims; lvl++ {
		root = joinNode(alt.Join, root, lvl)
		if lvl < q.Dims-1 || q.Order {
			// Re-key by the joined attribute for the next probe or the
			// ORDER BY.
			root = Project{Input: root}
		}
	}
	switch {
	case q.Order && q.Limit > 0 && alt.Ord == OrdTopK:
		root = TopK{Input: root}
	case q.Order && q.Limit > 0:
		root = Limit{Input: Sort{Input: root}}
	case q.Order:
		root = Sort{Input: root}
	default:
		sel := agg.ByKey
		if q.Dims > 0 {
			sel = agg.ByPayload
		}
		root = GroupBy{Input: root, Sel: sel, Spill: alt.Agg == AggSpill}
	}
	return root
}

// Choose costs every alternative of q under the model and returns the
// cheapest (ties break to enumeration order).
func Choose(m *Model, q Query, sh Shape) Alternative {
	alts := q.Alternatives()
	best, bestC := alts[0], math.Inf(1)
	for _, a := range alts {
		if c := m.Cost(q, a, sh); c < bestC {
			best, bestC = a, c
		}
	}
	return best
}

// shapeOf estimates the planner Shape for an environment: the dataset
// sizes, and — under an EPC capacity limit — the ratio of the query's
// working-set estimate to that capacity.
func shapeOf(env *core.Env, ds *Dataset) Shape {
	sh := Shape{NDim: ds.Dim.N(), NFact: ds.Fact.N()}
	if env.EPCPages > 0 {
		sh.EPCRatio = float64(WorkingSetPages(ds.Fact.N(), ds.Dim.N())) / float64(env.EPCPages)
	}
	return sh
}

// WorkingSetPages estimates a suite query's working set in 4 KiB pages
// over nFact fact and nDim dimension rows: fact tuples + filter bytes +
// id list + filtered tuples + join outputs + agg entries, ~9 bytes of
// table plus ~7 words of intermediates per fact row, and the dimension's
// tuples.
func WorkingSetPages(nFact, nDim int) int64 {
	return (int64(nFact)*(9+7*8)+int64(nDim)*8)/4096 + 1
}

// Plan picks the cost-based strategy for q in env at a thread count and
// returns the lowered tree alongside the choice.
func (q Query) Plan(env *core.Env, ds *Dataset, threads int) (Node, Alternative) {
	m := ModelFor(env.Setting, threads)
	alt := Choose(m, q, shapeOf(env, ds))
	return q.Tree(alt), alt
}

// Run executes q end to end: a fixed shape runs the tree of its own
// strategy; a suite query ensures the snowflake chain exists, picks the
// cheapest strategy for the environment's setting and EPC regime, and
// executes the lowered tree.
func (q Query) Run(env *core.Env, ds *Dataset, opt Options) *Result {
	if q.fixed != (Alternative{}) {
		return Execute(env, ds, opt, q.Name, q.Tree(q.fixed))
	}
	if q.Dims > 1 {
		EnsureChain(env, ds, q.Dims-1)
	}
	opt.Pred = q.Pred
	if q.Limit > 0 && opt.Limit == 0 {
		opt.Limit = q.Limit
	}
	root, _ := q.Plan(env, ds, opt.threads())
	return Execute(env, ds, opt, q.Name, root)
}
