// Command diag prints the simulated breakdown of one run — a quick
// inspection tool for the timing model. It either replays one golden
// entry by name, exactly as cmd/bench pins it, or runs one join under
// the knobs the golden file does not pin (the naive kernels, INL, any
// scale and thread count).
//
// Usage:
//
//	go run ./cmd/diag [-alg RHO] [-setting plain|plainm|doe|die] [-scale 128] [-threads 16] [-opt]
//	go run ./cmd/diag -replay q2.filter-join-agg -setting die [-profile q2.folded]
//	go run ./cmd/diag -replay fault.crash.admit -setting die [-trace trace.json]
//	go run ./cmd/diag -replay plan.s03.j0.sel902.u.agg -setting die [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -replay takes any workload name of BENCH_GOLDEN.json (join.PHT,
// spill.join.grace@2x, plan.s09.j1.sel250.u.agg@epc2, serve.mutex.dyn,
// scale.shard.batch.c256, …) under a setting the file pins it for.
// -cpuprofile and -memprofile write host pprof profiles of any replay.
// Each mode reads only its own flags (flagModes); a flag the selected
// mode would ignore exits 2 with the usage text.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"sgxbench/internal/bench"
	"sgxbench/internal/core"
	"sgxbench/internal/exec"
	"sgxbench/internal/join"
	"sgxbench/internal/obs"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
	"sgxbench/internal/serve"
)

var (
	algName  = flag.String("alg", "RHO", "join algorithm: PHT, RHO, MWAY, INL or CrkJoin")
	setName  = flag.String("setting", "plain", "execution setting: plain, plainm, doe or die")
	scale    = flag.Int64("scale", 128, "join: platform scale-down factor (power of two)")
	threads  = flag.Int("threads", 16, "join: worker threads")
	optimize = flag.Bool("opt", false, "join: enable the unroll+reorder optimized kernels")

	replayName  = flag.String("replay", "", "replay the golden entry with this workload name (sizes, seeds, scale and 4 threads as BENCH_GOLDEN.json pins them) instead of a join")
	tracePath   = flag.String("trace", "", "replay of a serving entry (serve.*, fault.*, scale.*): write its span trace + metrics timeline as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	profilePath = flag.String("profile", "", "replay of a pipeline entry (q1…q5, q2s, q3s): print the per-operator x per-phase cycle tree and write folded stacks (flamegraph.pl compatible) to this file")
	cpuProfile  = flag.String("cpuprofile", "", "replay: write a host CPU profile of the replay to this file (go tool pprof)")
	memProfile  = flag.String("memprofile", "", "replay: sample every host allocation of the replay and write the allocs profile to this file (go tool pprof -top)")
)

// runMode identifies which of diag's run modes a flag combination
// selects: the join, or a replay of one kind of golden entry.
type runMode int

const (
	modeJoin runMode = iota
	modeReplay
	modePipeline
	modeServing
)

// pickMode resolves -replay under setting s: no name selects the join
// mode; a golden entry selects the replay mode of its kind; a name the
// golden file does not pin under s is an error.
func pickMode(replay string, s core.Setting) (runMode, *bench.Entry, error) {
	if replay == "" {
		return modeJoin, nil, nil
	}
	e, err := bench.Lookup(replay, s)
	switch {
	case err != nil:
		return 0, nil, err
	case e.Profiled:
		return modePipeline, e, nil
	case e.Traced:
		return modeServing, e, nil
	}
	return modeReplay, e, nil
}

// modeNames names each mode in flag errors.
var modeNames = [...]string{
	modeJoin: "join mode", modeReplay: "a -replay of an operator entry",
	modePipeline: "a -replay of a pipeline entry", modeServing: "a -replay of a serving entry",
}

// flagModes maps each mode-specific flag to the modes that read it; a
// golden entry fixes its own sizes, scale and threads.
var flagModes = map[string][]runMode{
	"alg": {modeJoin}, "opt": {modeJoin}, "scale": {modeJoin}, "threads": {modeJoin},
	"profile":    {modePipeline},
	"trace":      {modeServing},
	"cpuprofile": {modeReplay, modePipeline, modeServing},
	"memprofile": {modeReplay, modePipeline, modeServing},
}

// checkFlags rejects a flag (given lists the flags set on the command
// line) that mode m does not read.
func checkFlags(m runMode, given []string) error {
	for _, name := range given {
		if modes, ok := flagModes[name]; ok && !slices.Contains(modes, m) {
			return fmt.Errorf("-%s has no effect in %s", name, modeNames[m])
		}
	}
	return nil
}

// parseSetting maps a -setting value to its execution setting.
func parseSetting(s string) (core.Setting, bool) {
	v, ok := map[string]core.Setting{"plain": core.PlainCPU, "plainm": core.PlainCPUM, "doe": core.SGXDoE, "die": core.SGXDiE}[s]
	return v, ok
}

// checkScale rejects a join -scale that is not a positive power of two
// or that leaves the RowsForMB(100)/scale build relation without rows.
func checkScale(scale int64) error {
	if scale <= 0 || scale&(scale-1) != 0 {
		return fmt.Errorf("-scale %d must be a positive power of two", scale)
	}
	if int64(rel.RowsForMB(100))/scale == 0 {
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

	setting, ok := parseSetting(*setName)
	if !ok {
		exitOn(fmt.Errorf("unknown setting %q (want plain, plainm, doe or die)", *setName), 2)
	}
	mode, entry, err := pickMode(*replayName, setting)
	exitOn(err, 2)
	var given []string
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	exitOn(checkFlags(mode, given), 2)
	if entry != nil {
		runReplay(entry)
		return
	}

	exitOn(checkScale(*scale), 2)
	if *threads < 1 {
		exitOn(fmt.Errorf("-threads %d must be >= 1", *threads), 2)
	}
	alg, err := join.ByName(*algName)
	exitOn(err, 2)
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(*scale), Setting: setting})
	nR := rel.RowsForMB(100) / int(*scale)
	nS := rel.RowsForMB(400) / int(*scale)
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
	res, err := alg.Run(env, build, probe, join.Options{Threads: *threads, Optimized: *optimize})
	exitOn(err, 1)
	fmt.Printf("%s %s: wall=%d tput=%.1f M/s build=%d probe=%d\n",
		alg.Name(), setting, res.WallCycles, res.Throughput(env, nR, nS)/1e6, res.BuildCycles, res.ProbeCycles)
	printPhases(res.Phases)
}

// runReplay replays e and prints its golden numbers, engine counters
// (the EPC paging ones included), stages and phases, or its serving
// breakdown, then writes the requested profile or trace.
func runReplay(e *bench.Entry) {
	var r *bench.Replayed
	var err error
	exitOn(hostProfiled(*cpuProfile, *memProfile, func() { r, err = e.Replay() }), 1)
	exitOn(err, 1)
	for _, p := range []struct{ kind, path string }{{"CPU", *cpuProfile}, {"allocs", *memProfile}} {
		if p.path != "" {
			fmt.Printf("wrote host %s profile to %s\n", p.kind, p.path)
		}
	}
	st := r.Stats
	fmt.Printf("%s %s: sim_cycles=%d check=%#x\n", r.Workload, r.Setting, r.SimCycles, r.Check)
	fmt.Printf("stats: loads=%d stores=%d l1=%d l2=%d l3=%d dram=%d walks=%d ssb=%d epcFaults=%d evictions=%d pagingCycles=%d\n",
		st.Loads, st.Stores, st.L1Hits, st.L2Hits, st.L3Hits, st.DRAMAcc, st.TLBWalks, st.StallSSB,
		st.EPCFaults, st.EPCEvictions, st.EPCPagingCycles)
	for _, s := range r.Stages {
		fmt.Printf("stage %-8s wall=%9d rows=%d\n", s.Name, s.WallCycles, s.Rows)
	}
	printPhases(r.Phases)
	if r.Serve != nil {
		printServe(r)
	}
	if *profilePath != "" {
		fmt.Println("cycle-attribution profile:")
		exitOn(r.Profiler.WriteTree(os.Stdout), 1)
		writeFile(*profilePath, r.Profiler.WriteFolded)
		fmt.Printf("wrote folded stacks to %s\n", *profilePath)
	}
	if *tracePath != "" {
		cfg := r.Serve.Config
		writeFile(*tracePath, func(w io.Writer) error { return obs.WriteTrace(w, cfg.Trace, cfg.Metrics) })
		ts := cfg.Trace.Stats()
		fmt.Printf("wrote trace to %s: %d spans, %d instants (%d dropped), %d metric samples every %d cycles (%d dropped)\n",
			*tracePath, ts.Spans, ts.Instants, ts.Dropped, cfg.Metrics.Len(), cfg.Metrics.Interval(), cfg.Metrics.Dropped())
	}
}

// hostProfiled runs run under the requested host profiles ("" skips
// one): a CPU profile written to cpu, and an allocs profile written to
// mem, for which every allocation run makes is sampled.
func hostProfiled(cpu, mem string, run func()) error {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	rate := runtime.MemProfileRate
	if mem != "" {
		runtime.MemProfileRate = 1
	}
	run()
	runtime.MemProfileRate = rate
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return err
		}
	}
	if mem == "" {
		return nil
	}
	runtime.GC() // the profile reports allocations up to the last collection
	return create(mem, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
}

// writeFile creates path and writes it with write, exiting on an error.
func writeFile(path string, write func(io.Writer) error) { exitOn(create(path, write), 1) }

// create creates path and writes it with write.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// printServe prints a serving replay: its calibration, the scenario
// shape, the queue/transition/EDMM breakdown and, under a fault plan,
// the fault counters and the injected fault timeline.
func printServe(r *bench.Replayed) {
	res, cfg := r.Serve, r.Serve.Config
	fmt.Println("calibrated classes:")
	for _, c := range r.Classes {
		fmt.Printf("  %-20s service=%9d cycles  workingSet=%4d pages\n", c.Name, c.ServiceCycles, c.Pages)
	}
	traffic := fmt.Sprintf("closed loop (think=%d)", cfg.ThinkCycles)
	if cfg.Arrival != nil {
		traffic = "open loop: " + cfg.Arrival.String()
	}
	fmt.Printf("scenario: clients=%d workers=%d requests/client=%d seed=%d admit=%d deadline=%d retries=%d %s dispatch=%s batch=%d\n",
		cfg.Clients, cfg.Workers, cfg.RequestsPerClient, cfg.Seed, cfg.AdmitDepth, cfg.DeadlineCycles, cfg.MaxRetries, traffic, cfg.Dispatch, cfg.Batch)
	fmt.Printf("%s %s queue=%q mem=%s: %d requests, makespan=%d cycles, %.0f q/s\n",
		res.Setting, cfg.Sync, res.Queue, cfg.Mem, res.Requests, res.MakespanCycles, res.ThroughputQPS)
	fmt.Printf("outcome: %d succeeded, %d failed, goodput %.0f q/s\n", res.Succeeded, res.Failed, res.GoodputQPS)
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
	faults := cfg.Fault
	if faults != nil {
		fmt.Printf("  %-12s %14d  (%d AEX events)\n", "aex", b.AEXCycles, b.AEXEvents)
		fmt.Printf("  %-12s %14d  (%d crashes)\n", "rebuild", b.RebuildCycles, b.Crashes)
	}
	fmt.Printf("fault counters: timeouts=%d retries=%d shed=%d\n", b.Timeouts, b.Retries, b.Shed)
	fmt.Println("per class:")
	for _, c := range res.PerClass {
		fmt.Printf("  %-20s n=%4d  meanLat=%d\n", c.Name, c.Requests, c.MeanCycles)
	}
	if faults == nil {
		return
	}
	fmt.Println("injected fault timeline:")
	for _, win := range faults.StormWindows(res.MakespanCycles) {
		fmt.Printf("  t=%-12d aex storm until t=%d (one AEX per %d work cycles)\n", win[0], win[1], faults.StormAEXGap)
	}
	for _, ev := range res.Faults {
		fmt.Printf("  t=%-12d worker %-3d %s\n", ev.T, ev.Worker, ev.Kind)
	}
	if res.FaultsDropped > 0 {
		fmt.Printf("  (+%d earlier fault events past the %d-event cap; counters above stay exact)\n",
			res.FaultsDropped, len(res.Faults))
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
