package bench

import (
	"fmt"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/join"
	"sgxbench/internal/plan"
)

// sweep runs the workload table across all four settings on the fast
// path, then asserts the hash-vs-sort contrast over its numbers.
func (b *bencher) sweep() error {
	b.printf("== sweep (batched fast path, %d reps) ==\n", b.z.reps)
	for _, s := range settings {
		for _, w := range workloads {
			if w.twinOnly {
				continue
			}
			samples := repeat(w.prep(prepCtx{false, s, b.o.Threads, b.z}), b.z.reps)
			// Check values (matches / checksums) must be deterministic
			// across repetitions; sim_cycles of workloads that allocate
			// fresh simulated state per repetition are not and are
			// reported from the first repetition.
			for k, v := range samples {
				if v.check != samples[0].check {
					b.printf("  CHECK DIVERGENCE: %s/%s rep %d check=%d vs %d\n", w.name, s, k, v.check, samples[0].check)
					b.rep.Equivalent = false
				}
			}
			b.record(w.name, s, samples[0])
			b.printf("  %-18s %-11s simMcyc=%d\n", w.name, s, samples[0].cycles/1e6)
		}
	}
	b.printf("== hash vs sort ==\n")
	return b.gate("hash_vs_sort_ok")
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

// spill is the EPC oversubscription sweep (SGX DiE). Every (operator,
// ratio) point runs once on each engine path: the fast run feeds the
// sweep, the reference run must reproduce it bit for bit — including the
// demand-paging fault, eviction and paging-cycle counters — and
// oversubscribed points must actually fault. The gate compares each
// operator's oversubscribed points against its own resident baseline.
func (b *bencher) spill() error {
	b.printf("== spill (EPC oversubscription, SGX DiE) ==\n")
	for _, w := range spillWorkloads {
		for _, ratio := range spillRatios {
			name := spillName(w.name, ratio)
			ref := w.prep(prepCtx{true, core.SGXDiE, b.o.Threads, b.z}, ratio)()
			fast := w.prep(prepCtx{false, core.SGXDiE, b.o.Threads, b.z}, ratio)()
			b.equivalent(name, fast, ref)
			st := fast.stats
			if (ratio > 0) != (st.EPCFaults > 0) {
				b.printf("  SPILL GATE FAILURE: %s faulted %d times (resident points must not page, oversubscribed ones must)\n", name, st.EPCFaults)
				b.rep.SpillOK = false
			}
			b.record(name, core.SGXDiE, fast)
			b.printf("  %-24s simMcyc=%-8d faults=%d evictions=%d\n", name, fast.cycles/1e6, st.EPCFaults, st.EPCEvictions)
		}
	}
	return b.gate("spill_degradation_ok")
}

// tieTol is the planner gate's tolerance: measured near-ties carry no
// signal.
const tieTol = 0.05

// planEnv builds a fresh suite environment for q; epcRatio > 0 caps the
// EPC at the query's approximate working set divided by it.
func (b *bencher) planEnv(s core.Setting, q plan.Query, epcRatio int64, ref bool) (*core.Env, *plan.Dataset) {
	var pages int64
	if epcRatio > 0 {
		wsBytes := int64(b.z.planFact)*(9+7*8) + int64(b.z.planDim)*8
		pages = (wsBytes/4096 + 1) / epcRatio
	}
	env := prepCtx{ref: ref, setting: s}.env(32, pages)
	return env, plan.GenSuiteDataset(env, q, b.z.planDim, b.z.planFact, 4242)
}

// planField is one query's static alternatives, each measured in a fresh
// identically-prepared environment, against the planner's pick.
type planField struct {
	pick, bestAlt plan.Alternative // the planner's choice; the first measured-cheapest alternative
	chosen        sample           // the pick's measured run
	best, worst   uint64           // measured cycles spread over the field
	n             int              // alternatives in the field
}

// planField measures q's field and records the pick's run as name.
func (b *bencher) planField(name string, s core.Setting, q plan.Query, epcRatio int64) planField {
	env, ds := b.planEnv(s, q, epcRatio, false)
	_, pick := q.Plan(env, ds, b.o.Threads)
	alts := q.Alternatives()
	f := planField{pick: pick, n: len(alts)}
	for _, alt := range alts {
		env, ds := b.planEnv(s, q, epcRatio, false)
		r := plan.Execute(env, ds, plan.Options{Threads: b.o.Threads, Pred: q.Pred, Limit: q.Limit}, q.Name, q.Tree(alt))
		if alt == pick {
			f.chosen = planSample(r)
		}
		if f.best == 0 || r.WallCycles < f.best {
			f.best, f.bestAlt = r.WallCycles, alt
		}
		if r.WallCycles > f.worst {
			f.worst = r.WallCycles
		}
	}
	b.record(name, s, f.chosen)
	return f
}

func planSample(r *plan.Result) sample {
	return sample{cycles: r.WallCycles, check: r.Check, stats: r.Stats}
}

// planner is the cost-based strategy choice over the 20-query suite.
// Every suite query runs under every static strategy alternative, then
// the enclave-aware cost model picks per setting. The planner_ok gate is
// hard: the pick's measured simulated cycles must never exceed the worst
// static choice's (strictly below it whenever the field is spread out),
// and on the EPC oversubscription axis the pick must flip to the spill
// aggregation exactly where the measured costs cross (2-4x). All chosen
// runs are deterministic and feed the golden gate as "plan.<query>"
// entries.
func (b *bencher) planner() error {
	suite := plan.Suite()
	b.printf("== planner (cost-based pick, %d-query suite, %d dim x %d fact) ==\n", len(suite), b.z.planDim, b.z.planFact)
	agree, decided := 0, 0
	for _, s := range settings {
		for _, q := range suite {
			f := b.planField("plan."+q.Name, s, q, 0)
			got, spread := f.chosen.cycles, float64(f.worst-f.best) > tieTol*float64(f.best)
			if got > f.worst || (f.n > 1 && got == f.worst && spread) {
				b.rep.PlannerOK = false
				b.printf("  PLANNER GATE FAILURE: %s/%s chose %s (%d cycles; field best %d worst %d)\n",
					q.Name, s, f.pick, got, f.best, f.worst)
			}
			if spread {
				decided++
				if float64(got) <= (1+tieTol)*float64(f.best) {
					agree++
				}
			}
			if s == core.SGXDiE {
				b.printf("  %-22s %-9s pick=%-14s simKcyc=%-8d field=[%d..%d]\n", q.Name, s, f.pick, got/1e3, f.best, f.worst)
			}
		}
	}
	b.note(nil, fmt.Sprintf("planner gate: cost-based pick within %.0f%% of measured best on %d/%d decided (query,setting) blocks",
		tieTol*100, agree, decided), true)
	// The EPC-axis flip: under SGX DiE at 2x and 4x oversubscription the
	// measured field of these two queries must favor the spill
	// aggregation, and the planner must follow it there.
	for _, name := range []string{"s03.j0.sel902.u.agg", "s09.j1.sel250.u.agg"} {
		q, err := plan.ByName(name)
		if err != nil {
			return err
		}
		for _, ratio := range []int64{2, 4} {
			f := b.planField(fmt.Sprintf("plan.%s@epc%d", q.Name, ratio), core.SGXDiE, q, ratio)
			text, pass := fmt.Sprintf("planner flip: %s at %dx EPC oversubscription pick=%s measured-best=%s", name, ratio, f.pick, f.bestAlt), false
			switch {
			case f.bestAlt.Agg != plan.AggSpill:
				text += " (measured field did not cross to spill)"
			case f.pick.Agg != plan.AggSpill:
				text += " (pick did not follow the measured crossing)"
			case float64(f.chosen.cycles) > (1+tieTol)*float64(f.best):
				text += fmt.Sprintf(" (pick measures %d, best %d)", f.chosen.cycles, f.best)
			default:
				pass = true
			}
			b.note(&b.rep.PlannerOK, text, pass)
		}
	}
	// The deepest chain query's chosen plan re-runs on the per-op
	// reference path: the Project and INL nodes must be bit-identical
	// across engine paths like every other operator.
	q, err := plan.ByName("s19.j3.sel250.u.agg")
	if err != nil {
		return err
	}
	opt := plan.Options{Threads: b.o.Threads, Pred: q.Pred, Limit: q.Limit}
	env, ds := b.planEnv(core.SGXDiE, q, 0, false)
	tree, alt := q.Plan(env, ds, b.o.Threads)
	refEnv, refDS := b.planEnv(core.SGXDiE, q, 0, true)
	b.equivalent("plan."+q.Name, planSample(plan.Execute(env, ds, opt, q.Name, tree)),
		planSample(plan.Execute(refEnv, refDS, opt, q.Name, q.Tree(alt))))
	return nil
}

// equivalence compares the fast path against the per-op reference
// engine on every workload, single-threaded under SGX DiE: repetition k
// sees identical simulated state on both paths, so the samples must
// match pairwise.
func (b *bencher) equivalence() error {
	b.printf("== equivalence (fast vs per-op reference, SGX DiE, %d reps) ==\n", b.z.reps)
	for _, w := range workloads {
		prep := w.prep
		if w.twinPrep != nil {
			prep = w.twinPrep
		}
		ref := repeat(prep(prepCtx{true, core.SGXDiE, 1, b.z}), b.z.reps)
		fast := repeat(prep(prepCtx{false, core.SGXDiE, 1, b.z}), b.z.reps)
		eq := true
		for k := range fast {
			eq = b.equivalent(fmt.Sprintf("%s rep %d", w.name, k), fast[k], ref[k]) && eq
		}
		b.printf("  %-18s simMcyc=%-8d equivalent=%v\n", w.name, fast[0].cycles/1e6, eq)
	}
	return nil
}
