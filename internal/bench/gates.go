package bench

import (
	"fmt"

	"sgxbench/internal/core"
	"sgxbench/internal/plan"
)

// The metrics a gate may read (the metric part of key()).
const (
	simCycles  = "sim_cycles"     // any sweep entry's simulated cycles
	throughput = "throughput_qps" // a serving entry's simulated throughput
	goodput    = "goodput_qps"    // ... its successes-only throughput
	p99        = "p99_cycles"     // ... its p99 latency
)

// die keys an SGX DiE measurement, where every gate but one lives.
func die(entry, metric string) string { return key(entry, core.SGXDiE, metric) }

// gate is one row of the gate table: the measured ratio num/den (den
// empty: num alone), a comparison and a limit, feeding one report flag.
type gate struct {
	flag     string // JSON key of the Report flag a miss clears
	note     string // fmt format taking (measured ratio, limit)
	num, den string
	cmp      string  // "<", ">" or ">="
	want     float64 // the fixed limit, unless ...
	// wantNum/wantDen, when set, measure the limit instead (hash-vs-sort:
	// the hash path's own slowdown).
	wantNum, wantDen string
}

// dieGate is the common row shape: one metric of two SGX DiE entries.
func dieGate(flag, note, num, den, metric, cmp string, want float64) gate {
	return gate{flag: flag, note: note, num: die(num, metric), den: die(den, metric), cmp: cmp, want: want}
}

// spillGate compares an operator's cycles at an oversubscription ratio
// against its own fully-resident run.
func spillGate(op string, ratio int64, cmp string, want float64) gate {
	tail := ")"
	if cmp == ">" {
		tail = " naive collapse)"
	}
	note := fmt.Sprintf("spill gate: %s at %dx oversubscription %%.2fx slowdown (want %s %%.1fx%s", op, ratio, cmp, tail)
	return dieGate("spill_degradation_ok", note, spillName(op, ratio), spillName(op, 0), simCycles, cmp, want)
}

// shardGate compares the batched and global dispatch shapes at one
// saturated open-loop client count: throughput up, or p99 down.
func shardGate(clients int, metric string) gate {
	num, den := scaleName("shard.batch", clients), scaleName("global", clients)
	note := fmt.Sprintf("shard scaling (shard.batch/global qps, %d open-loop clients, DiE): %%.2fx (want >= %%.1fx)", clients)
	if metric == p99 {
		num, den = den, num
		note = fmt.Sprintf("shard p99 bound (global/shard.batch p99, %d clients, DiE): %%.2fx (want >= %%.1fx)", clients)
	}
	return dieGate("shard_scaling_ok", note, num, den, metric, ">=", 2)
}

// gates is the gate table, in note order; a section evaluates the rows
// of its flag when it finishes (bencher.gate).
var gates = []gate{
	// The Fig 3 hash-vs-sort contrast as a hard gate: the sort-merge query
	// path (q5 — sequential run passes, streaming merges, cursor stores the
	// SSB mitigation cannot serialize) must show a strictly smaller
	// simulated enclave slowdown (SGX DiE cycles / Plain CPU cycles) than
	// the radix-hash query path (q2 — data-dependent scatters and probes).
	// Both slowdowns are ratios of deterministic simulated numbers from the
	// sweep, so the gate is asserted in quick mode too and any regression
	// of the timing model that inverts the paper's headline contrast fails
	// the run.
	{flag: "hash_vs_sort_ok", cmp: "<",
		note: "hash-vs-sort gate (simulated DiE/plain slowdown): " + plan.Q5Name + " %.3fx vs " + plan.Q2Name + " %.3fx (want sort < hash)",
		num:  die(plan.Q5Name, simCycles), den: key(plan.Q5Name, core.PlainCPU, simCycles),
		wantNum: die(plan.Q2Name, simCycles), wantDen: key(plan.Q2Name, core.PlainCPU, simCycles)},

	// The EPC oversubscription degradation gate: at 2x and 4x
	// oversubscription (EPC capacity = working set / ratio) the
	// spill-partitioned operators — GRACE join and the spill group-by, which
	// stage partition runs in untrusted memory through sequential streaming
	// writes — must stay under a 3x slowdown against their own
	// fully-resident runs, while the naive in-EPC operators (PHT's shared
	// hash table, the single-table direct group-by) collapse past 10x
	// under demand paging. All four curves are ratios of deterministic
	// simulated cycles, so the gate is hard in quick mode too.
	spillGate("spill.join.grace", 2, "<", 3), spillGate("spill.join.grace", 4, "<", 3),
	spillGate("spill.join.pht", 2, ">", 10), spillGate("spill.join.pht", 4, ">", 10),
	spillGate("spill.agg", 2, "<", 3), spillGate("spill.agg", 4, "<", 3),
	spillGate("spill.agg.direct", 2, ">", 10), spillGate("spill.agg.direct", 4, ">", 10),

	// The serve collapse ratios are ratios of *simulated* throughput under
	// SGX DiE: deterministic, noise-free, and therefore a hard gate in quick
	// mode too. The scenario's 32 clients on 16 workers saturate the
	// dispatch queue and the EDMM commit lock; below ~8 clients the gaps
	// would not be a property of the contention model. The lock-free
	// dispatch queue must hold >= 4x the SGX SDK mutex's throughput (paper
	// Section 4.4 / Fig 11 regime; the scenario measures ~8x) ...
	dieGate("serve_collapse_ok", "serve sync collapse (lock-free/SDK-mutex qps, DiE): %.2fx (want >= %.1fx)",
		"serve.lockfree.pre", "serve.mutex.pre", throughput, ">=", 4),
	// ... and the pre-sized enclave >= 20x the dynamically-sized (EDMM)
	// one: Fig 12 reports ~95 % loss (~20x); the scenario — every request
	// recommitting its full working set against the enclave-global
	// page-table lock — collapses far harder, so 20x is the floor.
	dieGate("serve_collapse_ok", "serve EDMM collapse (pre-sized/EDMM qps, DiE): %.2fx (want >= %.1fx)",
		"serve.lockfree.pre", "serve.lockfree.dyn", throughput, ">=", 20),

	// The fault gate: under the crash-storm plan, admission-controlled
	// goodput must keep >= 0.5x of its own fault-free goodput, while the
	// naive variant's p99 must blow past 10x its fault-free p99 AND its
	// goodput must fall below half of the admission-controlled variant's —
	// the serving analogue of the spill-vs-naive degradation curve:
	// mitigations bound the damage, the naive shape melts down.
	dieGate("fault_degradation_ok", "fault degradation (admit crash-storm/fault-free goodput, DiE): %.2fx (want >= %.2fx)",
		"fault.crash.admit", "fault.none.admit", goodput, ">=", 0.5),
	dieGate("fault_degradation_ok", "fault naive p99 blowup (crash-storm/fault-free, DiE): %.1fx (want >= %.1fx)",
		"fault.crash.naive", "fault.none.naive", p99, ">=", 10),
	dieGate("fault_degradation_ok", "fault naive goodput collapse (naive/admit under crash-storm, DiE): %.2fx (want < %.2fx)",
		"fault.crash.naive", "fault.crash.admit", goodput, "<", 0.5),

	// The shard gate: at the saturated open-loop points (>= 1024 clients)
	// sharded+batched dispatch must hold >= 2x the global queue's
	// throughput with p99 at most half of it — the transition-amortization
	// headroom the cost model predicts (~2.4x: 2 x 8000-cycle transitions
	// per attempt vs ~1000 amortized).
	shardGate(1024, throughput), shardGate(1024, p99), shardGate(2048, throughput), shardGate(2048, p99),
}

// ratio measures num/den; a key the suite did not produce is an error
// naming it, never a silent zero.
func (b *bencher) ratio(num, den string) (float64, error) {
	v, ok := b.vals[num]
	d, dok := 1.0, true
	if den != "" {
		d, dok = b.vals[den]
	}
	switch {
	case !ok:
		return 0, fmt.Errorf("no measurement %q", num)
	case !dok:
		return 0, fmt.Errorf("no measurement %q", den)
	case d == 0:
		return 0, fmt.Errorf("measurement %q is zero", den)
	}
	return v / d, nil
}

// eval is the one gate evaluator: it measures the row, compares, and
// emits the note — with its MISS suffix and flag — through b.note.
func (b *bencher) eval(g gate) error {
	v, err := b.ratio(g.num, g.den)
	limit := g.want
	if err == nil && g.wantNum != "" {
		limit, err = b.ratio(g.wantNum, g.wantDen)
	}
	flag := b.rep.flag(g.flag)
	ok, known := map[string]bool{"<": v < limit, ">": v > limit, ">=": v >= limit}[g.cmp]
	switch {
	case err != nil:
		return fmt.Errorf("gate %s (%s): %w", g.flag, g.note, err)
	case flag == nil || !known:
		return fmt.Errorf("gate %s (%s): unknown report flag or comparison %q", g.flag, g.note, g.cmp)
	}
	b.note(flag, fmt.Sprintf(g.note, v, limit), ok)
	return nil
}

// note records one target note; a miss suffixes it and clears the flag.
func (b *bencher) note(flag *bool, text string, ok bool) {
	if !ok {
		*flag = false
		text += " MISS"
	}
	b.rep.TargetNotes = append(b.rep.TargetNotes, text)
	b.printf("  %s\n", text)
}

// gate evaluates every table row feeding the given flag, in table order.
func (b *bencher) gate(flag string) error {
	for _, g := range gates {
		if g.flag == flag {
			if err := b.eval(g); err != nil {
				return err
			}
		}
	}
	return nil
}
