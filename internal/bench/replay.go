package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"sgxbench/internal/core"
	"sgxbench/internal/exec"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/serve"
)

// goldenThreads is the -threads the golden snapshot is recorded at.
const goldenThreads = 4

// Entry is one golden entry: its name and setting, how the suite runs
// it and what it checks. entries() lists every one; Lookup resolves one
// without running anything.
type Entry struct {
	Workload string
	Setting  core.Setting
	Profiled bool // a query pipeline: Replay returns its cycle-attribution profiler
	Traced   bool // a serving scenario: Replay returns a traced serve.Result
	fam      *family
	run      func(b *bencher, c prepCtx) ([]sample, error) // on c.ref's engine path: a sample per repetition, detail in c.out
	twin     bool                                          // under SGX DiE, a reference-path run must reproduce the fast one
	check    func(b *bencher, r *Replayed)                 // the entry's own checks and progress line
}

// family is one section of the suite: consecutive entries sharing a
// progress header (before the first) and gate rows (after the last).
type family struct {
	head func(b *bencher)       // nil: none
	gate func(b *bencher) error // nil: none
}

// Replayed is one golden entry's run: the entry as the golden file holds
// it, and the detail cmd/diag prints next to it.
type Replayed struct {
	Result
	Phases   []exec.PhaseStats // every entry that runs operators (not micro.gather, not serving)
	Stages   []plan.StageStats // pipelines and planner picks
	Profiler *obs.Profiler     // pipelines
	Serve    *serve.Result     // serving entries; its Config holds the fault plan, tracer and metrics
	Classes  []serve.ClassCost // serving entries: the calibration replayed
	field    planField         // planner entries: the measured field the planner_ok gate reads
}

// entries lists every golden entry, once per (workload, setting), in
// BENCH_GOLDEN.json order: the sweep (settings outer), spill, the
// planner suite (settings outer) and its EPC flips, then serve
// (settings outer), fault and scale.
func entries() []Entry {
	var es []Entry
	add := func(name string, s core.Setting, e Entry) {
		e.Workload, e.Setting = name, s
		es = append(es, e)
	}
	for _, s := range settings {
		for _, w := range workloads {
			if !w.twinOnly {
				add(w.name, s, Entry{fam: sweepFamily, Profiled: w.profiled, check: sweepLine,
					run: func(b *bencher, c prepCtx) ([]sample, error) { return repeat(w.prep(c), b.z.reps), nil }})
			}
		}
	}
	for _, w := range spillWorkloads {
		for _, r := range spillRatios {
			add(spillName(w.name, r), core.SGXDiE, Entry{fam: spillFamily, twin: true,
				run:   func(_ *bencher, c prepCtx) ([]sample, error) { return []sample{w.prep(c, r)()}, nil },
				check: func(b *bencher, out *Replayed) { b.spillCheck(out, r) }})
		}
	}
	for _, s := range settings {
		for _, q := range plan.Suite() {
			add(planName(q.Name, 0), s, plannerEntry(q, 0, planFamily, (*bencher).planCheck))
		}
	}
	for _, q := range plan.Suite() {
		if slices.Contains(flipQueries, q.Name) {
			for _, r := range flipRatios {
				add(planName(q.Name, r), core.SGXDiE, plannerEntry(q, r, flipFamily, (*bencher).flipCheck))
			}
		}
	}
	for _, s := range settings {
		for _, sc := range serveScenarios() {
			add(sc.name, s, servingEntry(sc, serveFamily, serveLine))
		}
	}
	for _, sc := range faultScenarios() {
		add(sc.name, core.SGXDiE, servingEntry(sc, faultFamily, faultLine))
	}
	for _, sc := range scaleScenarios() {
		add(sc.name, core.SGXDiE, servingEntry(sc, scaleFamily, scaleLine))
	}
	return es
}

// entry runs e as the suite records it — its repetitions must agree on
// check, its reference twin must reproduce it — then records it and
// runs its checks. Run and Replay both run entries through it.
func (b *bencher) entry(e *Entry) (*Replayed, error) {
	out := &Replayed{}
	c := prepCtx{setting: e.Setting, threads: b.o.Threads, z: b.z, rings: b.rings, out: out}
	vs, err := e.run(b, c)
	if err == nil && e.twin && e.Setting == core.SGXDiE {
		var ref []sample
		c.ref, c.rings, c.out = true, suiteRings, &Replayed{}
		if ref, err = e.run(b, c); err == nil {
			b.equivalent(e.Workload, vs[0], ref[0])
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", e.Workload, e.Setting, err)
	}
	// Check values (matches / checksums) must be deterministic across
	// repetitions; sim_cycles of workloads that allocate fresh simulated
	// state per repetition are not and are reported from the first one.
	v := vs[0]
	for k, r := range vs {
		if r.check != v.check {
			b.printf("  CHECK DIVERGENCE: %s/%s rep %d check=%d vs %d\n", e.Workload, e.Setting, k, r.check, v.check)
			b.rep.Equivalent = false
		}
	}
	// Every entry is deterministic (the PHT shared-table build preclaims
	// its insert slots in input order, so even multi-threaded builds repeat).
	out.Result = Result{e.Workload, e.Setting.String(), v.cycles, v.check, v.stats}
	b.rep.Sweep = append(b.rep.Sweep, out.Result)
	b.vals[key(e.Workload, e.Setting, simCycles)] = float64(v.cycles)
	if res := out.Serve; res != nil {
		b.rep.Serve = append(b.rep.Serve, res)
		b.vals[key(e.Workload, e.Setting, throughput)] = res.ThroughputQPS
		b.vals[key(e.Workload, e.Setting, goodput)] = res.GoodputQPS
		b.vals[key(e.Workload, e.Setting, p99)] = float64(res.P99)
	}
	e.check(b, out)
	return out, nil
}

// Lookup resolves the golden entry (workload, s); one the golden file
// does not pin is an error naming the entry families.
func Lookup(workload string, s core.Setting) (*Entry, error) {
	var families []string
	for _, e := range entries() {
		if e.Workload == workload && e.Setting == s {
			return &e, nil
		}
		if f, _, _ := strings.Cut(e.Workload, "."); !slices.Contains(families, f+".*") {
			families = append(families, f+".*")
		}
	}
	return nil, fmt.Errorf("golden pins no entry %q under %s; its entry families are %s", workload, s, strings.Join(families, " "))
}

// Replay runs the entry as cmd/bench -quick does (goldenThreads
// threads, reference twin, profiler or tracer attached), except that a
// serving entry's fast run keeps its whole trace and metrics; its twin
// gets the suite's rings. Its Result equals the entry's golden line. A
// check the entry runs that fails — a disagreeing twin, diverging
// repetitions, the entry's own rule, a histogram percentile off the
// exact one — is an error naming the cleared gate flags, with the log
// the suite would have printed.
func (e *Entry) Replay() (*Replayed, error) {
	var log strings.Builder
	b := &bencher{o: Options{Quick: true, Threads: goldenThreads}, z: quickSizes, out: &log, rep: raised(&Report{}),
		vals: map[string]float64{}, cals: map[string]*serve.Workload{}, rings: rings{math.MaxInt, math.MaxInt}}
	out, err := b.entry(e)
	if err != nil {
		return nil, err
	}
	b.obsCheck()
	var failed []string
	for _, k := range gateFlags() {
		if !*b.rep.flag(k) {
			failed = append(failed, k)
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("%s/%s: checks failed (%s):\n%s", e.Workload, e.Setting, strings.Join(failed, ", "), strings.TrimRight(log.String(), "\n"))
	}
	return out, nil
}
