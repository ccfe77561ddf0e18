// Command diag runs one join, one end-to-end query pipeline, or one
// multi-query serving scenario under one execution setting and prints
// the simulated breakdown — a quick inspection tool for the timing
// model.
//
// Usage:
//
//	go run ./cmd/diag [-alg RHO] [-setting plain|plainm|doe|die] [-scale 128] [-threads 16] [-opt]
//	go run ./cmd/diag -query q2.filter-join-agg -setting die [-threads 4]
//	go run ./cmd/diag -serve -setting die [-sync mutex] [-mem dyn] [-clients 32] [-workers 16]
//	go run ./cmd/diag -serve -setting die -dispatch shard -batch 16 -arrival poisson -gap 100000
//	go run ./cmd/diag -epc -setting die [-ratio 2] [-scale 512] [-threads 4]
//	go run ./cmd/diag -fault -setting die [-admit 12] [-clients 64] [-workers 8]
//
// Each mode reads only its own flags (flagModes); a flag the selected
// mode would ignore exits 2 with the usage text.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"sgxbench/internal/agg"
	"sgxbench/internal/bench"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/join"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
	"sgxbench/internal/scan"
	"sgxbench/internal/serve"
)

var (
	algName   = flag.String("alg", "RHO", "join algorithm: PHT, RHO, MWAY, INL or CrkJoin")
	queryName = flag.String("query", "", "run a query pipeline instead of a join: a fixed shape (q1.filter-agg ... q5.mergejoin-agg, q2s/q3s spill variants) or a planner suite query (s01.j0.sel004.u.agg ... s20.j3.sel902.z.agg)")
	setName   = flag.String("setting", "plain", "execution setting: plain, plainm, doe or die")
	scale     = flag.Int64("scale", 128, "platform scale-down factor (power of two)")
	threads   = flag.Int("threads", 16, "worker threads")
	optimize  = flag.Bool("opt", false, "enable the unroll+reorder optimized kernels")

	// Serving-scenario mode (-serve): the multi-query simulator.
	serveMode = flag.Bool("serve", false, "simulate a multi-query serving scenario instead of a single join/pipeline")
	clients   = flag.Int("clients", 32, "serve: closed-loop clients")
	workers   = flag.Int("workers", 16, "serve: enclave worker-pool size")
	requests  = flag.Int("requests", 8, "serve: requests per client")
	syncName  = flag.String("sync", "mutex", "serve: dispatch queue sync model: mutex, spin or lockfree")
	memName   = flag.String("mem", "pre", "serve: memory mode: pre (pre-sized) or dyn (EDMM / minor faults)")
	think     = flag.Uint64("think", 0, "serve: client think time between requests (cycles; closed loop only)")

	// Production-scale serving knobs (-serve / -fault): dispatch shape,
	// enclave-entry batching and open-loop traffic.
	dispatchName = flag.String("dispatch", "global", "serve: dispatch shape: global (one lock-free/mutex queue) or shard (per-worker queues with work stealing)")
	batch        = flag.Int("batch", 0, "serve: max queued requests coalesced per enclave entry (0 or 1: unbatched)")
	arrivalName  = flag.String("arrival", "", "serve: open-loop arrival process: poisson (empty: closed loop)")
	gapCycles    = flag.Uint64("gap", 300_000, "serve: open-loop mean inter-arrival gap per client (cycles; needs -arrival)")

	// EPC oversubscription mode (-epc): the demand-paging diagnostics.
	epcMode  = flag.Bool("epc", false, "run the spill/naive operator pairs under a capacity-limited enclave and print the paging breakdown")
	epcRatio = flag.Int64("ratio", 2, "epc: oversubscription ratio (EPC capacity = working set / ratio; 0 = unlimited)")

	// Fault-injection mode (-fault): the crash-storm serving scenario
	// with deadlines, retries and admission control, plus the injected
	// fault timeline.
	faultMode = flag.Bool("fault", false, "simulate the fault-injected serving scenario and print the fault timeline next to the breakdown")
	admit     = flag.Int("admit", 12, "fault: queue-depth admission limit (0 = naive unbounded queue)")

	// Observability outputs: a Chrome-trace-event span/metrics timeline
	// for serving scenarios, a folded-stack cycle profile for pipelines.
	tracePath   = flag.String("trace", "", "serve/fault: write the scenario's span trace + metrics timeline as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	profilePath = flag.String("profile", "", "query: print the per-operator x per-phase cycle tree and write folded stacks (flamegraph.pl compatible) to this file")
)

// runMode identifies which of diag's mutually exclusive run modes a
// flag combination selects.
type runMode int

const (
	modeJoin runMode = iota
	modeQuery
	modeServe
	modeEPC
	modeFault
)

// pickMode resolves the mode flags. At most one of -serve, -fault,
// -epc and -query may be given (none: the single-join mode);
// conflicting combinations are an error instead of a silent precedence
// order, so a typo like "-serve -epc" cannot run the wrong simulation.
func pickMode(serveM, faultM, epcM bool, queryName string) (runMode, error) {
	var sel []string
	m := modeJoin
	if serveM {
		sel = append(sel, "-serve")
		m = modeServe
	}
	if faultM {
		sel = append(sel, "-fault")
		m = modeFault
	}
	if epcM {
		sel = append(sel, "-epc")
		m = modeEPC
	}
	if queryName != "" {
		sel = append(sel, "-query")
		m = modeQuery
	}
	if len(sel) > 1 {
		return 0, fmt.Errorf("conflicting modes %s (pick one)", strings.Join(sel, " "))
	}
	return m, nil
}

// modeNames names each mode by the flag that selects it.
var modeNames = [...]string{modeJoin: "join", modeQuery: "-query", modeServe: "-serve", modeEPC: "-epc", modeFault: "-fault"}

// serving lists the two serving modes, which read the same scenario flags.
var serving = []runMode{modeServe, modeFault}

// flagModes maps each mode-specific flag to the modes that read it.
var flagModes = map[string][]runMode{
	"alg": {modeJoin}, "opt": {modeJoin},
	"threads": {modeJoin, modeQuery, modeEPC},
	"profile": {modeQuery},
	"ratio":   {modeEPC},
	"admit":   {modeFault},
	"clients": serving, "workers": serving, "requests": serving, "sync": serving, "mem": serving,
	"think": serving, "dispatch": serving, "batch": serving, "arrival": serving, "gap": serving,
	"trace": serving,
}

// checkFlags rejects a command line that would silently mis-run, or fail
// only after calibrating every pipeline: a flag (given lists the flags
// set on it) that mode m does not read, -think with -arrival (open-loop
// clients do not think), -gap without -arrival, a zero -gap, a negative
// -ratio, -admit or -batch, and -clients, -workers or -requests below 1.
func checkFlags(m runMode, given []string) error {
	for _, name := range given {
		if modes, ok := flagModes[name]; ok && !slices.Contains(modes, m) {
			return fmt.Errorf("-%s has no effect in %s mode", name, modeNames[m])
		}
	}
	open := *arrivalName != ""
	switch {
	case open && slices.Contains(given, "think"):
		return fmt.Errorf("-think is a closed-loop knob; -arrival clients do not think")
	case !open && slices.Contains(given, "gap"):
		return fmt.Errorf("-gap needs -arrival")
	case *epcRatio < 0:
		return fmt.Errorf("-ratio %d must be >= 0", *epcRatio)
	case *admit < 0:
		return fmt.Errorf("-admit %d must be >= 0", *admit)
	case *batch < 0:
		return fmt.Errorf("-batch %d must be >= 0", *batch)
	case *clients < 1:
		return fmt.Errorf("-clients %d must be >= 1", *clients)
	case *workers < 1:
		return fmt.Errorf("-workers %d must be >= 1", *workers)
	case *requests < 1:
		return fmt.Errorf("-requests %d must be >= 1", *requests)
	case open && *gapCycles == 0:
		return fmt.Errorf("-gap 0 must be >= 1")
	}
	return nil
}

func parseSetting(s string) (core.Setting, bool) {
	switch s {
	case "plain":
		return core.PlainCPU, true
	case "plainm":
		return core.PlainCPUM, true
	case "doe":
		return core.SGXDoE, true
	case "die":
		return core.SGXDiE, true
	}
	return 0, false
}

// checkScale rejects a -scale that is not a positive power of two and,
// in the modes that size relations as RowsForMB(100) and RowsForMB(400)
// divided by the scale, one that leaves a relation without rows.
func checkScale(m runMode, scale int64) error {
	if scale <= 0 || scale&(scale-1) != 0 {
		return fmt.Errorf("-scale %d must be a positive power of two", scale)
	}
	if m != modeServe && m != modeFault && int64(rel.RowsForMB(100))/scale == 0 {
		return fmt.Errorf("-scale %d exceeds the %d rows of the 100 MiB relation", scale, rel.RowsForMB(100))
	}
	return nil
}

// exitOn reports a non-nil err and exits with code: 2 (with the usage
// text) for a bad flag value, 1 for a run-time failure.
func exitOn(err error, code int) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "diag: %v\n", err)
	if code == 2 {
		flag.Usage()
	}
	os.Exit(code)
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: diag [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	mode, err := pickMode(*serveMode, *faultMode, *epcMode, *queryName)
	exitOn(err, 2)
	var given []string
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	exitOn(checkFlags(mode, given), 2)

	setting, ok := parseSetting(*setName)
	if !ok {
		exitOn(fmt.Errorf("unknown setting %q (want plain, plainm, doe or die)", *setName), 2)
	}
	exitOn(checkScale(mode, *scale), 2)
	if *threads < 1 {
		exitOn(fmt.Errorf("-threads %d must be >= 1", *threads), 2)
	}

	plat := platform.XeonGold6326().Scaled(*scale)

	switch mode {
	case modeServe, modeFault:
		runServe(plat, setting, slices.Contains(given, "think"))
		return
	case modeEPC:
		runEPC(plat, setting)
		return
	}

	env := core.NewEnv(core.Options{Plat: plat, Setting: setting})

	if mode == modeQuery {
		p, err := plan.ByName(*queryName)
		exitOn(err, 2)
		nDim := 1 << 13
		nFact := rel.RowsForMB(400) / int(*scale)
		ds := plan.GenDataset(env, nDim, nFact, 1234)
		opt := plan.Options{Threads: *threads, Pred: scan.Predicate{Lo: 16, Hi: 127}}
		var prof *obs.Profiler
		if *profilePath != "" {
			prof = obs.NewProfiler("run")
			opt.Profiler = prof
		}
		res := p.Run(env, ds, opt)
		fmt.Printf("%s %s: wall=%d rows=%d groups=%d check=%#x\n",
			res.Pipeline, setting, res.WallCycles, res.Rows, res.Groups, res.Check)
		for _, st := range res.Stages {
			fmt.Printf("stage %-8s wall=%9d rows=%d\n", st.Name, st.WallCycles, st.Rows)
		}
		printPhases(res.Phases)
		if prof != nil {
			fmt.Println("cycle-attribution profile:")
			exitOn(prof.WriteTree(os.Stdout), 1)
			f, err := os.Create(*profilePath)
			exitOn(err, 1)
			werr := prof.WriteFolded(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			exitOn(werr, 1)
			fmt.Printf("wrote folded stacks to %s\n", *profilePath)
		}
		return
	}

	alg, err := join.ByName(*algName)
	exitOn(err, 2)
	nR := rel.RowsForMB(100) / int(*scale)
	nS := rel.RowsForMB(400) / int(*scale)
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
	res, err := alg.Run(env, build, probe, join.Options{Threads: *threads, Optimized: *optimize})
	exitOn(err, 1)
	fmt.Printf("%s %s: wall=%d tput=%.1f M/s build=%d probe=%d\n",
		alg.Name(), setting, res.WallCycles, res.Throughput(env, nR, nS)/1e6, res.BuildCycles, res.ProbeCycles)
	printPhases(res.Phases)
}

// runEPC runs the EPC oversubscription operator pairs — the
// spill-partitioned GRACE join and spill group-by against their naive
// counterparts (PHT's shared table, the single-table direct group-by) —
// under an enclave sized at workingSet / -ratio, and prints the paging
// breakdown: capacity, per-thread budget, residency at completion,
// fault/eviction/paging-cycle totals and the per-phase fault profile.
func runEPC(plat *platform.Platform, setting core.Setting) {
	nR := rel.RowsForMB(100) / int(*scale)
	nS := rel.RowsForMB(400) / int(*scale)
	pagesFor := func(ws int64) int64 {
		if *epcRatio <= 0 {
			return 0
		}
		return ws / *epcRatio
	}
	newEnv := func(pages int64) *core.Env {
		return core.NewEnv(core.Options{Plat: plat, Setting: setting, EPCPages: pages})
	}
	type opResult struct {
		wall   uint64
		phases []exec.PhaseStats
		stats  engine.Stats
	}
	type op struct {
		name string
		ws   int64 // working-set pages
		run  func(env *core.Env) (opResult, *exec.Group)
	}
	wsJoin := int64(nR+nS) * rel.TupleBytes / 4096
	wsAgg := int64(nS) * 8 / 4096
	aggInputs := func(env *core.Env) []agg.Input {
		_, fact := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
		return []agg.Input{{Tup: fact.Tup, N: nS}}
	}
	ops := []op{
		{"join.grace (spill)", wsJoin, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(*threads, nil)
			build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
			res, err := join.NewGrace().RunOn(env, g, build, probe, join.Options{Optimized: true})
			exitOn(err, 1)
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
		{"join.pht (naive)", wsJoin, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(*threads, nil)
			build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
			res, err := join.NewPHT().RunOn(env, g, build, probe, join.Options{Optimized: true})
			exitOn(err, 1)
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
		{"agg.spill", wsAgg, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(*threads, nil)
			res := agg.SpillRunOn(env, g, aggInputs(env), agg.Options{Sel: agg.ByKey, Groups: nR})
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
		{"agg.direct (naive)", wsAgg, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(1, nil)
			res := agg.DirectRunOn(env, g, aggInputs(env), agg.Options{Sel: agg.ByKey, Groups: nR})
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
	}
	fmt.Printf("EPC oversubscription diagnostics: %s, scale %d, ratio %dx, %d threads\n",
		setting, *scale, *epcRatio, *threads)
	for _, o := range ops {
		pages := pagesFor(o.ws)
		env := newEnv(pages)
		res, g := o.run(env)
		fmt.Printf("\n%-20s ws=%d pages  epc=%d pages  wall=%d cycles\n", o.name, o.ws, pages, res.wall)
		budget, resident := 0, 0
		for _, t := range g.Threads {
			budget = t.EPCBudgetPages()
			resident += t.EPCResident()
		}
		fmt.Printf("  budget=%d pages/thread  resident(end)=%d pages\n", budget, resident)
		fmt.Printf("  faults=%d evictions=%d pagingCycles=%d\n",
			res.stats.EPCFaults, res.stats.EPCEvictions, res.stats.EPCPagingCycles)
		for _, p := range res.phases {
			if p.Agg.EPCFaults == 0 {
				continue
			}
			fmt.Printf("  phase %-12s wall=%9d faults=%7d evictions=%7d pagingCycles=%d\n",
				p.Name, p.WallCycles, p.Agg.EPCFaults, p.Agg.EPCEvictions, p.Agg.EPCPagingCycles)
		}
	}
}

// runServe calibrates the pipelines on the -scale'd platform and
// replays one serving scenario, printing the per-phase
// queue/transition/EDMM breakdown. Under -fault the scenario carries the
// crash-storm fault plan plus deadlines, capped-backoff retries and
// (unless -admit 0) queue-depth admission control, and the injected
// fault timeline is printed next to the breakdown, mirroring -epc.
// thinkSet says -think was given; it then overrides the fault client's
// think time.
func runServe(plat *platform.Platform, setting core.Setting, thinkSet bool) {
	sync, err := serve.ParseSync(*syncName)
	exitOn(err, 2)
	mm, err := serve.ParseMem(*memName)
	exitOn(err, 2)
	disp, err := serve.ParseDispatchKind(*dispatchName)
	exitOn(err, 2)
	var arrival *serve.ArrivalPlan
	if *arrivalName != "" {
		kind, err := serve.ParseArrivalKind(*arrivalName)
		exitOn(err, 2)
		arrival = &serve.ArrivalPlan{Kind: kind, MeanGapCycles: *gapCycles}
	}
	w, err := serve.Calibrate(serve.CalibrateOptions{Plat: plat, Setting: setting})
	exitOn(err, 1)
	fmt.Printf("calibrated classes (%s, scale %d):\n", setting, *scale)
	for _, c := range w.Classes {
		fmt.Printf("  %-20s service=%9d cycles  workingSet=%4d pages\n", c.Name, c.ServiceCycles, c.Pages)
	}
	cfg := serve.Config{
		Clients: *clients, Workers: *workers, RequestsPerClient: *requests,
		Sync: sync, Mem: mm, ThinkCycles: *think, JitterPct: 10, Seed: 7,
		Dispatch: disp, Batch: *batch, Arrival: arrival,
	}
	// Calibrated mean service time: scales the fault plan and the
	// metrics sample interval so both survive -scale changes.
	meanService := bench.MeanService(w)
	if *tracePath != "" {
		cfg.Trace = obs.NewTracer(1 << 16)
		cfg.Metrics = obs.NewMetrics(meanService, 1<<12)
	}
	var faults *serve.FaultPlan
	if *faultMode {
		// The bench crash-storm scenario and client policy, from the
		// builders the bench suite itself uses.
		faults = bench.CrashStorm(meanService)
		cfg = bench.FaultClient(cfg, meanService)
		switch {
		case arrival != nil:
			cfg.ThinkCycles = 0 // open-loop scenarios pace themselves
		case thinkSet:
			cfg.ThinkCycles = *think
		}
		cfg.Fault = faults
		cfg.AdmitDepth = *admit
	}
	res, err := w.Simulate(cfg)
	exitOn(err, 1)
	// Echo the full scenario shape so any run is reproducible from the
	// diag output alone: traffic process, dispatch topology, batching.
	traffic := fmt.Sprintf("closed loop (think=%d)", cfg.ThinkCycles)
	if cfg.Arrival != nil {
		traffic = "open loop: " + cfg.Arrival.String()
	}
	shards := 1
	if cfg.Dispatch == serve.DispatchSharded {
		shards = cfg.Workers
	}
	fmt.Printf("\nscenario: clients=%d workers=%d requests/client=%d seed=%d\n",
		cfg.Clients, cfg.Workers, cfg.RequestsPerClient, cfg.Seed)
	fmt.Printf("scenario: %s  dispatch=%s (%d shards) batch=%d\n", traffic, cfg.Dispatch, shards, cfg.Batch)
	fmt.Printf("\n%s %s queue=%q mem=%s: %d requests, makespan=%d cycles, %.0f q/s\n",
		res.Setting, sync, res.Queue, mm, res.Requests, res.MakespanCycles, res.ThroughputQPS)
	if *faultMode {
		fmt.Printf("outcome: %d succeeded, %d failed, goodput %.0f q/s (admit depth %d)\n",
			res.Succeeded, res.Failed, res.GoodputQPS, *admit)
	}
	fmt.Printf("latency cycles: p50=%d p95=%d p99=%d max=%d\n", res.P50, res.P95, res.P99, res.Max)
	b := res.Breakdown
	fmt.Printf("breakdown (cycles summed over %d requests):\n", b.Requests)
	fmt.Printf("  %-12s %14d  (%d one-way transitions)\n", "transition", b.TransitionCycles, b.Transitions)
	fmt.Printf("  %-12s %14d\n", "lock path", b.LockCycles)
	fmt.Printf("  %-12s %14d\n", "queue wait", b.QueueWaitCycles)
	fmt.Printf("  %-12s %14d  (%d pages)\n", "page commit", b.CommitCycles, b.PagesCommitted)
	fmt.Printf("  %-12s %14d\n", "commit wait", b.CommitWaitCycles)
	fmt.Printf("  %-12s %14d\n", "service", b.ServiceCycles)
	if ds := res.DispatchStats; ds != (serve.DispatchStats{}) {
		fmt.Printf("dispatch: steals=%d stolenAttempts=%d batches=%d batchedAttempts=%d\n",
			ds.Steals, ds.StolenAttempts, ds.Batches, ds.BatchedAttempts)
	}
	if *faultMode {
		fmt.Printf("  %-12s %14d  (%d AEX events)\n", "aex", b.AEXCycles, b.AEXEvents)
		fmt.Printf("  %-12s %14d  (%d crashes)\n", "rebuild", b.RebuildCycles, b.Crashes)
		fmt.Printf("fault counters: timeouts=%d retries=%d shed=%d\n", b.Timeouts, b.Retries, b.Shed)
	}
	fmt.Println("per class:")
	for _, c := range res.PerClass {
		fmt.Printf("  %-20s n=%4d  meanLat=%d\n", c.Name, c.Requests, c.MeanCycles)
	}
	if *faultMode {
		fmt.Println("injected fault timeline:")
		for _, win := range faults.StormWindows(res.MakespanCycles) {
			fmt.Printf("  t=%-12d aex storm until t=%d (one AEX per %d work cycles)\n",
				win[0], win[1], faults.StormAEXGap)
		}
		for _, ev := range res.Faults {
			fmt.Printf("  t=%-12d worker %-3d %s\n", ev.T, ev.Worker, ev.Kind)
		}
		if res.FaultsDropped > 0 {
			fmt.Printf("  (+%d earlier fault events past the %d-event cap; counters above stay exact)\n",
				res.FaultsDropped, len(res.Faults))
		}
	}
	if cfg.Trace != nil {
		f, err := os.Create(*tracePath)
		exitOn(err, 1)
		werr := obs.WriteTrace(f, cfg.Trace, cfg.Metrics)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		exitOn(werr, 1)
		st := cfg.Trace.Stats()
		fmt.Printf("wrote trace to %s: %d spans, %d instants (%d dropped), %d metric samples every %d cycles (%d dropped)\n",
			*tracePath, st.Spans, st.Instants, st.Dropped,
			cfg.Metrics.Len(), cfg.Metrics.Interval(), cfg.Metrics.Dropped())
	}
}

func printPhases(phases []exec.PhaseStats) {
	for _, p := range phases {
		fmt.Printf("%-10s wall=%9d busiest=%9d bw=%v host=%6.1fms loads=%9d stores=%9d l1=%9d l2=%8d l3=%7d dram=%7d walks=%6d ssb=%9d strF=%7d rndF=%7d\n",
			p.Name, p.WallCycles, p.Busiest, p.BWBound, float64(p.HostNanos)/1e6,
			p.Agg.Loads, p.Agg.Stores, p.Agg.L1Hits, p.Agg.L2Hits, p.Agg.L3Hits,
			p.Agg.DRAMAcc, p.Agg.TLBWalks, p.Agg.StallSSB, p.Agg.StreamFills, p.Agg.RandomFills)
	}
}
