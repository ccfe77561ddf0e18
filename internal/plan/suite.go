package plan

import (
	"fmt"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/rel"
	"sgxbench/internal/scan"
)

// Fixed query names (the bench workload identifiers).
const (
	Q1Name  = "q1.filter-agg"
	Q2Name  = "q2.filter-join-agg"
	Q3Name  = "q3.join-agg"
	Q4Name  = "q4.filter-sort-limit"
	Q5Name  = "q5.mergejoin-agg"
	Q2SName = "q2s.filter-join-agg-spill"
	Q3SName = "q3s.join-agg-spill"
)

// filtered is the σ(fact) → gather prefix q1/q2/q4/q2s share.
var filtered = Gather{Input: Filter{Input: Scan{}}}

// Fixed returns the seven fixed-shape queries in report order. Their
// trees reproduce the original hand-wired pipelines operator call for
// operator call, so their simulated cycles, checks and statistics are
// bit-identical to the golden entries recorded before they were trees.
// With pre-allocated Scratch they are run-to-run deterministic at any
// thread count (q3's shared PHT table preclaims its insert slots in
// input order, so even the multi-threaded build repeats bit-identically).
func Fixed() []Query {
	return []Query{
		// The selective aggregation: the gather is data-dependent random
		// access; the group-by keys are the fact foreign keys.
		{Name: Q1Name, fixed: GroupBy{Input: filtered, Sel: agg.ByKey}},
		// The full star query over the paper's best join (RHO, materialized
		// into per-thread pre-allocated buffers the aggregation reads as
		// segments).
		{Name: Q2Name, fixed: GroupBy{Input: HashJoin{Input: filtered}, Sel: agg.ByPayload}},
		// The unfiltered join-aggregation over the no-partitioning join (PHT),
		// whose shared-table build is the paper's most SSB-sensitive operator.
		{Name: Q3Name, fixed: GroupBy{Input: HashJoin{Input: Scan{}, Shared: true}, Sel: agg.ByPayload}},
		// The selective top-k query: Result.Groups reports the emitted row
		// count and Result.TopRows the rows (ORDER BY key, ties by tuple).
		{Name: Q4Name, fixed: TopK{Input: filtered}},
		// The sort-based star query (run-sort both inputs, MWAY's final
		// merge-join pass), q2/q3's contrast workload: the same γ, so any
		// end-to-end slowdown difference is attributable to the join path's
		// access pattern.
		{Name: Q5Name, fixed: GroupBy{Input: MergeJoin{Input: Scan{}}, Sel: agg.ByPayload}},
		// q2 and q3 rebuilt from the spill-partitioned pair (GRACE ⋈ → spill
		// γ), which detects an EPC capacity limit on the Env and stages
		// partition runs in untrusted memory: without a limit they run fully
		// resident, under one they degrade gracefully (the oversubscription
		// gate's spill-aware side).
		{Name: Q2SName, fixed: SpillGroupBy{Input: GraceJoin{Input: filtered}, Sel: agg.ByPayload}},
		{Name: Q3SName, fixed: SpillGroupBy{Input: GraceJoin{Input: Scan{}}, Sel: agg.ByPayload}},
	}
}

// ByName is the one query registry (bench workloads, serve classes):
// the fixed shape or suite query with the given name.
func ByName(name string) (Query, error) {
	for _, q := range append(Fixed(), Suite()...) {
		if q.Name == name {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("plan: unknown query %q", name)
}

// The 20-query OLAP suite: star/snowflake shapes spanning the planner's
// decision space — selectivities from 0.4% to 90%, uniform and
// self-similar (80/20) fact keys, join chains of 0–3 dimensions, and
// aggregation vs ORDER BY [LIMIT] finals.
//
// Naming scheme: s<NN>.j<dims>.sel<permille>.<u|z>.<agg|top|ord>
//   j<dims>   join chain depth (j0 = pure aggregation over the fact)
//   sel<...>  filter selectivity in permille (sel004 = 0.4%, sel250 = 25%)
//   u|z       uniform vs skewed (Zipf-like self-similar) fact keys
//   agg       group-by final;  top = ORDER BY + LIMIT;  ord = ORDER BY

// Suite predicates: byte-filter ranges hitting the named selectivities.
var (
	sel004 = scan.Predicate{Lo: 40, Hi: 40}  // 1/256  ≈ 0.4%
	sel102 = scan.Predicate{Lo: 16, Hi: 41}  // 26/256 ≈ 10.2%
	sel250 = scan.Predicate{Lo: 32, Hi: 95}  // 64/256 = 25%
	sel500 = scan.Predicate{Lo: 0, Hi: 127}  // 128/256 = 50%
	sel902 = scan.Predicate{Lo: 10, Hi: 240} // 231/256 ≈ 90.2%
)

// SuiteLimit is the LIMIT of the suite's top-k queries: small enough
// that the heap top-k and the full-sort cutoff genuinely differ.
const SuiteLimit = 256

// Suite returns the suite queries in report order.
func Suite() []Query {
	return []Query{
		{Name: "s01.j0.sel004.u.agg", Pred: sel004},
		{Name: "s02.j0.sel250.u.agg", Pred: sel250},
		{Name: "s03.j0.sel902.u.agg", Pred: sel902},
		{Name: "s04.j0.sel250.z.agg", Pred: sel250, Skew: true},
		{Name: "s05.j0.sel102.u.top", Pred: sel102, Order: true, Limit: SuiteLimit},
		{Name: "s06.j0.sel500.u.ord", Pred: sel500, Order: true},
		{Name: "s07.j1.sel004.u.agg", Pred: sel004, Dims: 1},
		{Name: "s08.j1.sel102.u.agg", Pred: sel102, Dims: 1},
		{Name: "s09.j1.sel250.u.agg", Pred: sel250, Dims: 1},
		{Name: "s10.j1.sel500.u.agg", Pred: sel500, Dims: 1},
		{Name: "s11.j1.sel902.u.agg", Pred: sel902, Dims: 1},
		{Name: "s12.j1.sel250.z.agg", Pred: sel250, Dims: 1, Skew: true},
		{Name: "s13.j1.sel902.z.agg", Pred: sel902, Dims: 1, Skew: true},
		{Name: "s14.j1.sel250.u.top", Pred: sel250, Dims: 1, Order: true, Limit: SuiteLimit},
		{Name: "s15.j1.sel500.u.ord", Pred: sel500, Dims: 1, Order: true},
		{Name: "s16.j2.sel250.u.agg", Pred: sel250, Dims: 2},
		{Name: "s17.j2.sel500.z.agg", Pred: sel500, Dims: 2, Skew: true},
		{Name: "s18.j2.sel102.u.top", Pred: sel102, Dims: 2, Order: true, Limit: SuiteLimit},
		{Name: "s19.j3.sel250.u.agg", Pred: sel250, Dims: 3},
		{Name: "s20.j3.sel902.z.agg", Pred: sel902, Dims: 3, Skew: true},
	}
}

// GenSuiteDataset builds the corpus q is specified over: the uniform
// star dataset, the self-similar fact keys when the query is skewed,
// and the snowflake chain levels its join depth needs. Deterministic in
// seed.
func GenSuiteDataset(env *core.Env, q Query, nDim, nFact int, seed uint64) *Dataset {
	ds := GenDataset(env, nDim, nFact, seed)
	if q.Skew {
		rel.GenSkewFK(ds.Fact, nDim, seed^0x94d049bb133111eb)
	}
	if q.Dims > 1 {
		EnsureChain(env, ds, q.Dims-1)
	}
	return ds
}
