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

// Query is one declarative query: a star/snowflake shape the planner
// lowers to a plan tree by picking join, aggregation and order
// strategies — or one of the seven fixed shapes (Fixed), whose tree is
// hard-wired.
type Query struct {
	Name string
	// fixed, when set, is the tree Run executes as is, under the caller's
	// Options: no planning, no predicate or limit of its own.
	fixed Node
	// Pred is the fact filter predicate (the selectivity knob).
	Pred scan.Predicate
	// Dims is the join chain depth: 0 (pure aggregation) to 3.
	Dims int
	// Skew marks the dataset recipe: fact foreign keys drawn
	// self-similar (80/20) instead of uniform. A dataset property — the
	// plan shape and the planner's uniform cost estimate are unchanged.
	Skew bool
	// Order requests ORDER BY (by the last joined attribute, or the
	// fact key for Dims == 0); Limit > 0 adds LIMIT.
	Order bool
	Limit int
}

// Alternative is one static strategy choice the planner weighs.
type Alternative struct {
	Join string // JoinRHO/JoinINL/JoinMerge/JoinGrace ("" when Dims == 0)
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

// scanned is the prefix every planned tree starts with: the filtered
// fact rows, materialized.
var scanned Node = Gather{Input: Filter{Input: Scan{}}}

// joinNode lowers one chain level's join under strategy s.
func joinNode(s string, in Node, lvl int) Node {
	switch s {
	case JoinINL:
		return INLJoin{Input: in, Level: lvl}
	case JoinGrace:
		return GraceJoin{Input: in, Level: lvl}
	case JoinMerge:
		return MergeJoin{Input: in}
	}
	return HashJoin{Input: in, Level: lvl}
}

// Tree lowers q to a plan tree under the given strategy alternative.
func (q Query) Tree(alt Alternative) Node {
	root := scanned
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
		if alt.Agg == AggSpill {
			root = SpillGroupBy{Input: root, Sel: sel}
		} else {
			root = GroupBy{Input: root, Sel: sel}
		}
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
// approximate working set (fact column + filter + scratch-sized
// intermediates) to that capacity.
func shapeOf(env *core.Env, ds *Dataset) Shape {
	sh := Shape{NDim: ds.Dim.N(), NFact: ds.Fact.N()}
	if env.EPCPages > 0 {
		// fact tuples + filter bytes + id list + filtered tuples +
		// join outputs + agg entries: ~9 bytes of table plus ~7 words of
		// intermediates per fact row.
		wsBytes := int64(ds.Fact.N())*(9+7*8) + int64(ds.Dim.N())*8
		sh.EPCRatio = float64(wsBytes/4096+1) / float64(env.EPCPages)
	}
	return sh
}

// Plan picks the cost-based strategy for q in env at a thread count and
// returns the lowered tree alongside the choice.
func (q Query) Plan(env *core.Env, ds *Dataset, threads int) (Node, Alternative) {
	m := ModelFor(env.Setting, threads)
	alt := Choose(m, q, shapeOf(env, ds))
	return q.Tree(alt), alt
}

// Run executes q end to end: a fixed shape runs its tree; a suite query
// ensures the snowflake chain exists, picks the cheapest strategy for
// the environment's setting and EPC regime, and executes the lowered
// tree.
func (q Query) Run(env *core.Env, ds *Dataset, opt Options) *Result {
	if q.fixed != nil {
		return Execute(env, ds, opt, q.Name, q.fixed)
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
