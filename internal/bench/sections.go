package bench

import (
	"fmt"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/join"
	"sgxbench/internal/plan"
)

// sweepFamily is the workload table across all four settings on the
// fast path; the hash-vs-sort contrast is asserted over its numbers.
var sweepFamily = &family{
	head: func(b *bencher) { b.printf("== sweep (batched fast path, %d reps) ==\n", b.z.reps) },
	gate: func(b *bencher) error { b.printf("== hash vs sort ==\n"); return b.gate("hash_vs_sort_ok") },
}

func sweepLine(b *bencher, r *Replayed) {
	b.printf("  %-18s %-11s simMcyc=%d\n", r.Workload, r.Setting, r.SimCycles/1e6)
}

// spillRatios is the oversubscription axis (0: fully resident baseline).
var spillRatios = []int64{0, 2, 4}

// spillName names one (operator, ratio) point.
func spillName(op string, ratio int64) string {
	if ratio == 0 {
		return op + "@resident"
	}
	return fmt.Sprintf("%s@%dx", op, ratio)
}

// spillWorkloads are the operators of the EPC oversubscription sweep:
// each spill-partitioned one, then its naive counterpart.
var spillWorkloads = []struct {
	name string
	prep func(c prepCtx, ratio int64) runner
}{
	{"spill.join.grace", func(c prepCtx, r int64) runner { return prepSpillJoin(c, join.NewGrace(), r) }},
	{"spill.join.pht", func(c prepCtx, r int64) runner { return prepSpillJoin(c, join.NewPHT(), r) }},
	{"spill.agg", func(c prepCtx, r int64) runner { return prepSpillAgg(c, agg.SpillRun, r) }},
	{"spill.agg.direct", func(c prepCtx, r int64) runner { return prepSpillAgg(c, agg.DirectRun, r) }},
}

// spillFamily is the EPC oversubscription sweep (SGX DiE). Every
// (operator, ratio) point runs once on each engine path: the fast run
// feeds the sweep, the reference twin must reproduce it bit for bit —
// including the demand-paging fault, eviction and paging-cycle counters
// — and oversubscribed points must actually fault. The gate compares
// each operator's oversubscribed points against its own resident
// baseline.
var spillFamily = &family{
	head: func(b *bencher) { b.printf("== spill (EPC oversubscription, SGX DiE) ==\n") },
	gate: func(b *bencher) error { return b.gate("spill_degradation_ok") },
}

// spillCheck is the fault rule: resident points must not page,
// oversubscribed ones must.
func (b *bencher) spillCheck(r *Replayed, ratio int64) {
	st := r.Stats
	if (ratio > 0) != (st.EPCFaults > 0) {
		b.printf("  SPILL GATE FAILURE: %s faulted %d times (resident points must not page, oversubscribed ones must)\n", r.Workload, st.EPCFaults)
		b.rep.SpillOK = false
	}
	b.printf("  %-24s simMcyc=%-8d faults=%d evictions=%d\n", r.Workload, r.SimCycles/1e6, st.EPCFaults, st.EPCEvictions)
}

// tieTol is the planner gate's tolerance: measured near-ties carry no
// signal.
const tieTol = 0.05

// flipQueries are the planner's EPC axis: two suite queries whose
// measured field crosses to the spill aggregation at flipRatios.
var (
	flipQueries = []string{"s03.j0.sel902.u.agg", "s09.j1.sel250.u.agg"}
	flipRatios  = []int64{2, 4}
)

// twinQuery, the deepest chain query, re-runs its pick on the reference
// path: Project and INL nodes must match across engine paths too.
const twinQuery = "s19.j3.sel250.u.agg"

// planEnv builds a fresh suite environment for q; epcRatio > 0 caps the
// EPC at the query's working-set estimate (plan.WorkingSetPages) divided
// by it.
func planEnv(c prepCtx, q plan.Query, epcRatio int64) (*core.Env, *plan.Dataset) {
	var pages int64
	if epcRatio > 0 {
		pages = plan.WorkingSetPages(c.z.planFact, c.z.planDim) / epcRatio
	}
	env := c.env(32, pages)
	return env, plan.GenSuiteDataset(env, q, c.z.planDim, c.z.planFact, 4242)
}

// planField is one query's static alternatives, each measured in a fresh
// identically-prepared environment, against the planner's pick.
type planField struct {
	query         string
	epcRatio      int64
	pick, bestAlt plan.Alternative // the planner's choice; the first measured-cheapest alternative
	chosen        *plan.Result     // the pick's measured run
	best, worst   uint64           // measured cycles spread over the field
	n             int              // alternatives in the field
}

// planName names a planner entry; epcRatio > 0 marks a point of the EPC axis.
func planName(q string, epcRatio int64) string {
	if epcRatio == 0 {
		return "plan." + q
	}
	return fmt.Sprintf("plan.%s@epc%d", q, epcRatio)
}

// measureField measures q's field; the reference path measures the pick
// alone.
func measureField(c prepCtx, q plan.Query, epcRatio int64) planField {
	env, ds := planEnv(c, q, epcRatio)
	_, pick := q.Plan(env, ds, c.threads)
	alts := q.Alternatives()
	f := planField{query: q.Name, epcRatio: epcRatio, pick: pick, n: len(alts)}
	if c.ref {
		alts = []plan.Alternative{pick}
	}
	for _, alt := range alts {
		env, ds := planEnv(c, q, epcRatio)
		r := plan.Execute(env, ds, plan.Options{Threads: c.threads, Pred: q.Pred, Limit: q.Limit}, q.Name, q.Tree(alt))
		if alt == pick {
			f.chosen = r
		}
		if f.best == 0 || r.WallCycles < f.best {
			f.best, f.bestAlt = r.WallCycles, alt
		}
		if r.WallCycles > f.worst {
			f.worst = r.WallCycles
		}
	}
	return f
}

// plannerEntry is q's entry at epcRatio: its run is the pick's run of the
// measured field.
func plannerEntry(q plan.Query, epcRatio int64, fam *family, check func(*bencher, *Replayed)) Entry {
	return Entry{fam: fam, check: check, twin: q.Name == twinQuery, run: func(_ *bencher, c prepCtx) ([]sample, error) {
		f := measureField(c, q, epcRatio)
		r := f.chosen
		c.out.Phases, c.out.Stages, c.out.field = r.Phases, r.Stages, f
		return []sample{{cycles: r.WallCycles, check: r.Check, stats: r.Stats}}, nil
	}}
}

// planFamily is the cost-based strategy choice over the 20-query suite.
// Every suite query runs under every static strategy alternative, then
// the enclave-aware cost model picks per setting. The planner_ok gate is
// hard: the pick's measured simulated cycles must never exceed the worst
// static choice's (strictly below it whenever the field is spread out),
// and on the EPC oversubscription axis (flipFamily) the pick must flip to
// the spill aggregation exactly where the measured costs cross (2-4x).
// All chosen runs are deterministic and feed the golden gate as
// "plan.<query>" entries.
var planFamily = &family{
	head: func(b *bencher) {
		b.printf("== planner (cost-based pick, %d-query suite, %d dim x %d fact) ==\n", len(plan.Suite()), b.z.planDim, b.z.planFact)
	},
	gate: func(b *bencher) error {
		b.note(nil, fmt.Sprintf("planner gate: cost-based pick within %.0f%% of measured best on %d/%d decided (query,setting) blocks",
			tieTol*100, b.agree, b.decided), true)
		return nil
	},
}

// planCheck holds one suite entry's pick against its measured field.
func (b *bencher) planCheck(r *Replayed) {
	f := r.field
	got, spread := f.chosen.WallCycles, float64(f.worst-f.best) > tieTol*float64(f.best)
	if got > f.worst || (f.n > 1 && got == f.worst && spread) {
		b.rep.PlannerOK = false
		b.printf("  PLANNER GATE FAILURE: %s/%s chose %s (%d cycles; field best %d worst %d)\n",
			f.query, r.Setting, f.pick, got, f.best, f.worst)
	}
	if spread {
		b.decided++
		if float64(got) <= (1+tieTol)*float64(f.best) {
			b.agree++
		}
	}
	if r.Setting == core.SGXDiE.String() {
		b.printf("  %-22s %-9s pick=%-14s simKcyc=%-8d field=[%d..%d]\n", f.query, r.Setting, f.pick, got/1e3, f.best, f.worst)
	}
}

// flipFamily is the planner's EPC axis: under SGX DiE at 2x and 4x
// oversubscription the measured field of the flipQueries must favor the
// spill aggregation, and the planner must follow it there.
var flipFamily = &family{}

// flipCheck notes whether one EPC-axis point's pick flipped with its field.
func (b *bencher) flipCheck(r *Replayed) {
	f := r.field
	text, pass := fmt.Sprintf("planner flip: %s at %dx EPC oversubscription pick=%s measured-best=%s", f.query, f.epcRatio, f.pick, f.bestAlt), false
	switch {
	case f.bestAlt.Agg != plan.AggSpill:
		text += " (measured field did not cross to spill)"
	case f.pick.Agg != plan.AggSpill:
		text += " (pick did not follow the measured crossing)"
	case float64(f.chosen.WallCycles) > (1+tieTol)*float64(f.best):
		text += fmt.Sprintf(" (pick measures %d, best %d)", f.chosen.WallCycles, f.best)
	default:
		pass = true
	}
	b.note(&b.rep.PlannerOK, text, pass)
}

// equivalence compares the fast path against the per-op reference
// engine on every workload, single-threaded under SGX DiE: repetition k
// sees identical simulated state on both paths, so the samples must
// match pairwise. Workloads run on at most workers goroutines and are
// compared in table order.
func (b *bencher) equivalence(workers int) {
	b.printf("== equivalence (fast vs per-op reference, SGX DiE, %d reps) ==\n", b.z.reps)
	fast, ref := make([][]sample, len(workloads)), make([][]sample, len(workloads))
	inOrder(len(workloads), workers, func(i int) {
		prep := workloads[i].prep
		if workloads[i].twinPrep != nil {
			prep = workloads[i].twinPrep
		}
		c := prepCtx{ref: true, setting: core.SGXDiE, threads: 1, z: b.z, out: &Replayed{}}
		ref[i] = repeat(prep(c), b.z.reps)
		c.ref = false
		fast[i] = repeat(prep(c), b.z.reps)
	}, func(i int) error {
		name, eq := workloads[i].name, true
		for k := range fast[i] {
			eq = b.equivalent(fmt.Sprintf("%s rep %d", name, k), fast[i][k], ref[i][k]) && eq
		}
		b.printf("  %-18s simMcyc=%-8d equivalent=%v\n", name, fast[i][0].cycles/1e6, eq)
		return nil
	})
}
