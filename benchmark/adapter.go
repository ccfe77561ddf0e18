package main

// adapter.go is the only file of the benchmark that imports
// sgxbench/internal/...: the four workload bodies, their oracles and
// the isolated layer probes all live here, so a restructuring of the
// simulator's packages edits exactly one benchmark file. It uses only
// the surface ROADMAP.md says survives the planned deletions:
// internal/plan (never internal/query), the batched engine path (no
// Reference mode) and the timer-wheel serve loop (no heap knob).

import (
	"fmt"
	"runtime"
	"time"

	"sgxbench/internal/agg"
	"sgxbench/internal/cache"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/join"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
	"sgxbench/internal/rng"
	"sgxbench/internal/scan"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
	sortop "sgxbench/internal/sort"
)

// simThreads is the simulated thread count of every multi-threaded
// operator run. It is a constant, never derived from the host: the
// thread count changes simulated results.
const simThreads = 2

// sizes fixes every workload and probe dimension. The body of a rep is
// the same whatever --seconds says; only the number of reps varies.
type sizes struct {
	// scan_stream
	ScanScale   int64 // platform scale-down factor
	ScanBytes   int   // byte column length
	ScanPasses  int   // bit-vector + row-id + stream passes per setting per rep
	StreamBytes int64 // address-only sequential read length

	// join_probe: 100 MB x 400 MB, platform and data divided by this
	JoinScale int64

	// olap_suite
	OlapScale int64
	OlapDim   int
	OlapFact  int

	// serve_scale
	ServeWorkers int
	Serve        serveRPC

	// layer probes (traced run only)
	ProbeScale     int64 // platform scale-down factor of every probe
	ProbeBufBytes  int64 // engine / kernels probe buffer
	ProbeAccesses  int   // accesses per cache / engine API probe
	ProbeScanBytes int
	ProbeJoinScale int64 // join probe data: 100 MB x 400 MB divided by this
	ProbeRows      int   // kernel / sort / agg rows
	ProbeDim       int
	ProbeFact      int
	ProbeServe     serveRPC
}

var fullSizes = sizes{
	ScanScale: 32, ScanBytes: 16 << 20, ScanPasses: 1, StreamBytes: 64 << 20,
	JoinScale: 128,
	OlapScale: 32, OlapDim: 1 << 10, OlapFact: 1 << 15,
	ServeWorkers: 64, Serve: serveRPC{Open: 80, C256: 128, Closed: 1024, Fault: 256},
	ProbeScale: 32, ProbeBufBytes: 64 << 20, ProbeAccesses: 1 << 18, ProbeScanBytes: 4 << 20,
	ProbeJoinScale: 256, ProbeRows: 1 << 18, ProbeDim: 1 << 10, ProbeFact: 1 << 15,
	ProbeServe: serveRPC{Open: 16, C256: 32, Closed: 256, Fault: 64},
}

// smokeSizes keeps every code path of the harness but finishes in about
// a second per workload; bench_test.go runs it under go test.
var smokeSizes = sizes{
	ScanScale: 32, ScanBytes: 1 << 18, ScanPasses: 1, StreamBytes: 1 << 20,
	JoinScale: 4096,
	OlapScale: 32, OlapDim: 1 << 7, OlapFact: 1 << 11,
	ServeWorkers: 64, Serve: serveRPC{Open: 1, C256: 2, Closed: 16, Fault: 4},
	ProbeScale: 32, ProbeBufBytes: 1 << 20, ProbeAccesses: 1 << 11, ProbeScanBytes: 1 << 16,
	ProbeJoinScale: 16384, ProbeRows: 1 << 10, ProbeDim: 1 << 6, ProbeFact: 1 << 10,
	ProbeServe: serveRPC{Open: 1, C256: 1, Closed: 4, Fault: 2},
}

var fourSettings = []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
var pairSettings = []core.Setting{core.PlainCPU, core.SGXDiE}

// simCounters is the harness's copy of the simulated counters a body
// returns, summed over its operator runs.
type simCounters struct {
	Accesses     uint64 // loads + stores
	L1Hits       uint64
	CacheServed  uint64 // L1 + L2 + L3 hits + DRAM accesses
	DRAM         uint64
	TLBWalks     uint64
	SSBStall     uint64
	ThreadCycles uint64 // wall cycles x threads, the SSB stall denominator
	EPCFaults    uint64
}

func (c *simCounters) add(s engine.Stats, wall uint64, threads int) {
	c.Accesses += s.Loads + s.Stores
	c.L1Hits += s.L1Hits
	c.CacheServed += s.L1Hits + s.L2Hits + s.L3Hits + s.DRAMAcc
	c.DRAM += s.DRAMAcc
	c.TLBWalks += s.TLBWalks
	c.SSBStall += s.StallSSB
	c.ThreadCycles += wall * uint64(threads)
	c.EPCFaults += s.EPCFaults
}

// conserved is the per-level conservation law visible from outside the
// engine: every cached access is served by exactly one level, and only
// page-walk metadata fetches (which hit the same caches) may add to the
// level counters.
func conserved(s engine.Stats) string {
	acc := s.Loads + s.Stores - s.NTStores
	served := s.L1Hits + s.L2Hits + s.L3Hits + s.DRAMAcc
	if served < acc || served > acc+s.MetaAcc {
		return fmt.Sprintf("level counters %d outside [accesses %d, accesses+meta %d]", served, acc, acc+s.MetaAcc)
	}
	return ""
}

// repResult is what one rep of a workload body reports.
type repResult struct {
	simCycles   uint64 // Σ WallCycles / MakespanCycles over the body
	dieCycles   uint64 // the SGX DiE halves of the paired runs
	plainCycles uint64 // the Plain CPU halves
	ops         uint64 // simulated accesses, or request attempts on serve_scale
	sim         simCounters
	checks      []uint64 // every check value in body order; equal across reps
	attempted   int
	failed      int
	failures    []string
	phases      int // exec phases run
}

// op runs one verified operation — one operator, query or scenario run.
// f returns "" when the output agrees with its oracle. An error, a
// mismatch or a panic on this goroutine fails the operation.
func (r *repResult) op(name string, f func() string) {
	r.attempted++
	defer func() {
		if p := recover(); p != nil {
			r.fail(name, fmt.Sprint("panic: ", p))
		}
	}()
	if msg := f(); msg != "" {
		r.fail(name, msg)
	}
}

func (r *repResult) fail(name, msg string) {
	r.failed++
	r.failures = append(r.failures, name+": "+msg)
}

// pairSide says which half of the enclave-slowdown pair a run is.
type pairSide int

const (
	unpaired pairSide = iota
	dieSide
	plainSide
)

func sideOf(s core.Setting) pairSide {
	switch s {
	case core.SGXDiE:
		return dieSide
	case core.PlainCPU:
		return plainSide
	}
	return unpaired
}

// account folds one operator run into the rep totals.
func (r *repResult) account(side pairSide, wall uint64, st engine.Stats, threads int, check uint64, phases []exec.PhaseStats) {
	r.simCycles += wall
	switch side {
	case dieSide:
		r.dieCycles += wall
	case plainSide:
		r.plainCycles += wall
	}
	r.ops += st.Loads + st.Stores
	r.sim.add(st, wall, threads)
	r.checks = append(r.checks, wall, check)
	r.phases += len(phases)
}

// workloadState is a set-up workload: everything a rep needs, kept
// referenced so host_live_heap_mb sees it.
type workloadState interface {
	// oracle computes the expected outputs, independently of the
	// simulator; it is not part of the timed set-up.
	oracle()
	// rep runs the fixed body once. tr is nil on untraced reps.
	rep(tr *tracer, root int) repResult
	// freeze is called once, after the warm-up rep: from then on every
	// rep must see identical simulated addresses.
	freeze()
}

type workloadDef struct {
	Name  string
	Why   string
	setup func(seed uint64, sz *sizes) workloadState
	// once, when set, is set-up work the simulator caches for the life of
	// the process. It returns the seconds the cold run took; setup_s is
	// that plus the median of the repeatable set-ups.
	once func() float64
}

var workloads = []workloadDef{
	{Name: "scan_stream", setup: setupScan,
		Why: "sequential: engine run APIs, stream prefetcher and cache fill path do the host work; gather, join, plan and serve do none"},
	{Name: "join_probe", setup: setupJoin,
		Why: "random, write-heavy: gather/chain/RMW/CAS engine APIs, histogram and scatter kernels, TLB; largest enclave slowdown"},
	{Name: "olap_suite", setup: setupOlap, once: func() float64 { return calibratePlanner().total },
		Why: "20 planned queries of many short phases: per-call fixed costs (dispatch, allocation, thread and cache construction) dominate"},
	{Name: "serve_scale", setup: setupServe,
		Why: "timer wheel, dispatch, faults and histograms only; the engine runs nothing after calibration"},
}

// tracePhases lays the phases a call returned out as back-to-back child
// spans of the call's span.
func tracePhases(tr *tracer, parent int, phases []exec.PhaseStats) {
	var off int64
	for _, p := range phases {
		tr.child(parent, "phase."+p.Name, off, p.HostNanos)
		off += p.HostNanos
	}
}

func phaseNanos(phases []exec.PhaseStats) int64 {
	var sum int64
	for _, p := range phases {
		sum += p.HostNanos
	}
	return sum
}

// --- address-space pinning -------------------------------------------

// regionUse is how many bytes of one region a Space has handed out.
type regionUse struct {
	reg  mem.Region
	used int64
}

// envSeed rebuilds an environment whose address space already holds the
// pre-generated inputs. Operators bump-allocate their own state from the
// Env's Space, so re-running on one Env shifts every later address and
// with it the simulated cycles. A rep therefore runs on a fresh Env and
// Space in which the inputs' address range is reserved up front: the
// inputs keep the addresses they were generated at, operator state
// starts at the same address in every rep, and sim_cycles repeats bit
// for bit.
type envSeed struct {
	opts core.Options
	use  []regionUse
	last *core.Env // the Env of the most recent rep
}

func newEnvSeed(env *core.Env, opts core.Options) *envSeed {
	s := &envSeed{opts: opts}
	s.mark(env)
	return s
}

func (s *envSeed) mark(env *core.Env) {
	s.use = s.use[:0]
	for node := 0; node < env.Plat.Sockets; node++ {
		for _, kind := range []mem.Kind{mem.Untrusted, mem.EPC} {
			reg := mem.Region{Node: node, Kind: kind}
			if used := env.Space.Used(reg); used > 0 {
				s.use = append(s.use, regionUse{reg, used})
			}
		}
	}
}

// fresh returns a cold environment with the marked ranges reserved.
func (s *envSeed) fresh() *core.Env {
	sp := mem.NewSpace(s.opts.Plat.Sockets)
	for _, u := range s.use {
		sp.Raw("inputs", u.used, u.reg)
	}
	o := s.opts
	o.Space = sp
	s.last = core.NewEnv(o)
	return s.last
}

// freeze re-marks from the warm-up rep's Env, whose Space now also holds
// whatever the first run allocated lazily into long-lived scratch.
func (s *envSeed) freeze() {
	if s.last != nil {
		s.mark(s.last)
	}
}

// --- scan_stream -----------------------------------------------------

var scanPred = scan.Predicate{Lo: 16, Hi: 127}

type scanSetting struct {
	env  *core.Env
	col  *mem.U8Buf
	bits *mem.U64Buf
	ids  *mem.U64Buf
	raw  mem.Buffer
}

type scanState struct {
	sz   *sizes
	per  []scanSetting
	want uint64 // scan.ReferenceCount oracle
}

func setupScan(seed uint64, sz *sizes) workloadState {
	st := &scanState{sz: sz}
	// One host copy of the column and of the result buffers serves all
	// four settings (they run one after the other); each setting's Env
	// places them at its own simulated addresses and region.
	colD := make([]uint8, sz.ScanBytes)
	bitsD := make([]uint64, sz.ScanBytes/64+2)
	idsD := make([]uint64, sz.ScanBytes+64)
	for i, s := range fourSettings {
		env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(sz.ScanScale), Setting: s})
		reg := env.DataRegion()
		p := scanSetting{
			env:  env,
			col:  &mem.U8Buf{Buffer: env.Space.Alloc("col", int64(len(colD)), reg), D: colD},
			bits: &mem.U64Buf{Buffer: env.Space.Alloc("scan.bits", int64(len(bitsD))*8, reg), D: bitsD},
			ids:  &mem.U64Buf{Buffer: env.Space.Alloc("scan.ids", int64(len(idsD))*8, reg), D: idsD},
			raw:  env.Space.Raw("seq", sz.StreamBytes, reg),
		}
		if i == 0 {
			scan.GenColumn(p.col, seed)
		}
		st.per = append(st.per, p)
	}
	return st
}

func (st *scanState) oracle() { st.want = scan.ReferenceCount(st.per[0].col, scanPred) }

func (st *scanState) freeze() {}

func (st *scanState) rep(tr *tracer, root int) repResult {
	var r repResult
	lines := uint64((st.sz.StreamBytes + 63) / 64)
	for _, p := range st.per {
		s := p.env.Setting
		for pass := 0; pass < st.sz.ScanPasses; pass++ {
			for _, rowIDs := range []bool{false, true} {
				name := "scan.Run.bv"
				opt := scan.Options{Threads: simThreads, Pred: scanPred, Bits: p.bits}
				if rowIDs {
					name = "scan.Run.rowid"
					opt = scan.Options{Threads: simThreads, Pred: scanPred, RowIDs: true, IDs: p.ids}
				}
				r.op(name+"/"+s.String(), func() string {
					sp := tr.begin(name, root)
					res := scan.Run(p.env, p.col, opt)
					tr.end(sp)
					tracePhases(tr, sp, res.Phases)
					r.account(sideOf(s), res.WallCycles, res.Stats, simThreads, res.Matches, res.Phases)
					if res.Matches != st.want {
						return fmt.Sprintf("matches %d, oracle %d", res.Matches, st.want)
					}
					return conserved(res.Stats)
				})
			}
			r.op("kernels.StreamRead/"+s.String(), func() string {
				sp := tr.begin("kernels.StreamRead", root)
				t := p.env.NewThread()
				cyc := kernels.StreamRead(t, p.raw, 0, st.sz.StreamBytes)
				tr.end(sp)
				stats := t.Stats()
				r.account(sideOf(s), cyc, stats, 1, stats.Loads, nil)
				if stats.Loads != lines {
					return fmt.Sprintf("loads %d, want %d lines", stats.Loads, lines)
				}
				return conserved(stats)
			})
		}
	}
	return r
}

// --- join_probe ------------------------------------------------------

type joinSetting struct {
	seed         *envSeed
	build, probe *rel.Relation
}

type joinState struct {
	per  []joinSetting
	want uint64 // rel.ReferenceJoinCount oracle
}

func joinRows(scale int64) (nR, nS int) {
	return rel.RowsForMB(100) / int(scale), rel.RowsForMB(400) / int(scale)
}

func setupJoin(seed uint64, sz *sizes) workloadState {
	st := &joinState{}
	nR, nS := joinRows(sz.JoinScale)
	for _, s := range pairSettings {
		opts := core.Options{Plat: platform.XeonGold6326().Scaled(sz.JoinScale), Setting: s}
		env := core.NewEnv(opts)
		build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), seed)
		st.per = append(st.per, joinSetting{newEnvSeed(env, opts), build, probe})
	}
	return st
}

func (st *joinState) oracle() { st.want = rel.ReferenceJoinCount(st.per[0].build, st.per[0].probe) }

func (st *joinState) freeze() {
	for _, p := range st.per {
		p.seed.freeze()
	}
}

func (st *joinState) rep(tr *tracer, root int) repResult {
	var r repResult
	for _, p := range st.per {
		s := p.seed.opts.Setting
		for _, alg := range []join.Algorithm{join.NewRHO(), join.NewPHT()} {
			r.op("join."+alg.Name()+"/"+s.String(), func() string {
				sp := tr.begin("join."+alg.Name()+".Run", root)
				res, err := alg.Run(p.seed.fresh(), p.build, p.probe, join.Options{Threads: simThreads, Optimized: true})
				tr.end(sp)
				if err != nil {
					return err.Error()
				}
				tracePhases(tr, sp, res.Phases)
				r.account(sideOf(s), res.WallCycles, res.Stats, simThreads, res.Matches, res.Phases)
				if res.Matches != st.want {
					return fmt.Sprintf("matches %d, oracle %d", res.Matches, st.want)
				}
				return conserved(res.Stats)
			})
		}
	}
	return r
}

// --- olap_suite ------------------------------------------------------

// olapData is one corpus (uniform or skewed fact keys) with the scratch
// the queries over it share.
type olapData struct {
	ds *plan.Dataset
	sc *plan.Scratch
}

type olapSetting struct {
	seed *envSeed
	data [2]olapData        // [0] uniform, [1] skewed fact keys
	alts []plan.Alternative // the planner's pick per suite query (oracle)
}

func (p *olapSetting) dataFor(q plan.Query) olapData {
	if q.Skew {
		return p.data[1]
	}
	return p.data[0]
}

type olapState struct {
	suite   []plan.Query
	per     []*olapSetting // Plain CPU, SGX DiE
	spill   *olapSetting   // SGX DiE with EPCPages = working set / 2
	spillQ  []int          // suite indexes of the queries run on it
	filters []uint64       // scan.ReferenceCount oracle per suite query
}

// olapSpillQueries are the planner's EPC-axis flip points (cmd/bench's
// planner gate uses the same two).
var olapSpillQueries = []string{"s03.j0.sel902.u.agg", "s09.j1.sel250.u.agg"}

func setupOlapSetting(s core.Setting, epcPages int64, skewToo bool, seed uint64, scale int64, nDim, nFact int) *olapSetting {
	opts := core.Options{Plat: platform.XeonGold6326().Scaled(scale), Setting: s, EPCPages: epcPages}
	env := core.NewEnv(opts)
	out := &olapSetting{}
	for i, skew := range []bool{false, true} {
		if skew && !skewToo {
			break
		}
		// A 3-dimension chain query makes the generator lay out every
		// snowflake level the suite's deepest query needs.
		ds := plan.GenSuiteDataset(env, plan.Query{Dims: 3, Skew: skew}, nDim, nFact, seed)
		out.data[i] = olapData{ds, plan.NewScratch(env, ds, simThreads, nFact)}
	}
	out.seed = newEnvSeed(env, opts)
	return out
}

func setupOlap(seed uint64, sz *sizes) workloadState {
	st := &olapState{suite: plan.Suite()}
	for _, s := range pairSettings {
		st.per = append(st.per, setupOlapSetting(s, 0, true, seed, sz.OlapScale, sz.OlapDim, sz.OlapFact))
	}
	wsBytes := int64(sz.OlapFact)*(9+7*8) + int64(sz.OlapDim)*8
	st.spill = setupOlapSetting(core.SGXDiE, (wsBytes/4096+1)/2, false, seed, sz.OlapScale, sz.OlapDim, sz.OlapFact)
	for _, name := range olapSpillQueries {
		found := false
		for qi, q := range st.suite {
			if q.Name == name {
				st.spillQ = append(st.spillQ, qi)
				found = true
			}
		}
		if !found {
			panic("benchmark: suite query " + name + " is gone")
		}
	}
	return st
}

func (st *olapState) oracle() {
	st.filters = st.filters[:0]
	for _, q := range st.suite {
		st.filters = append(st.filters, scan.ReferenceCount(st.per[0].data[0].ds.Filter, q.Pred))
	}
	for _, p := range append([]*olapSetting{st.spill}, st.per...) {
		env := p.seed.fresh()
		p.alts = p.alts[:0]
		for _, q := range st.suite {
			_, alt := q.Plan(env, p.data[0].ds, simThreads)
			p.alts = append(p.alts, alt)
		}
	}
}

func (st *olapState) freeze() {
	for _, p := range st.per {
		p.seed.freeze()
	}
	st.spill.seed.freeze()
}

// stageRows returns the first stage of that name's row count, or -1
// when the plan had no such stage.
func stageRows(res *plan.Result, name string) int64 {
	for _, s := range res.Stages {
		if s.Name == name {
			return int64(s.Rows)
		}
	}
	return -1
}

// stagePhases splits a result's phases among its stages: stages and
// phases are both in execution order, and a stage's wall cycles are the
// clock advance of its phases, so each stage takes phases until its
// cycles are used up.
func stagePhases(res *plan.Result) [][]exec.PhaseStats {
	out := make([][]exec.PhaseStats, len(res.Stages))
	k := 0
	for i, s := range res.Stages {
		var cyc uint64
		for k < len(res.Phases) && cyc+res.Phases[k].WallCycles <= s.WallCycles {
			cyc += res.Phases[k].WallCycles
			out[i] = append(out[i], res.Phases[k])
			k++
		}
	}
	return out
}

// stageGroup maps a plan stage onto the five groups the stage-share
// metrics report: a sort that feeds a merge join is join work, a sort
// that ends the query is ordering work.
func stageGroup(stages []plan.StageStats, i int) string {
	switch name := stages[i].Name; name {
	case "filter", "gather", "agg":
		return name
	case "join", "project":
		return "join"
	case "topk":
		return "order"
	default: // sort-fact, sort-dim
		for _, later := range stages[i+1:] {
			if later.Name == "join" {
				return "join"
			}
		}
		return "order"
	}
}

// runQuery executes one suite query under a span whose children are the
// plan's stages and, below them, their phases.
func runQuery(tr *tracer, root int, q plan.Query, env *core.Env, d olapData, prof *obs.Profiler) *plan.Result {
	sp := tr.begin("plan.Query.Run", root)
	res := q.Run(env, d.ds, plan.Options{Threads: simThreads, Scratch: d.sc, Profiler: prof})
	tr.end(sp)
	if tr != nil {
		var off int64
		for i, ph := range stagePhases(res) {
			dur := phaseNanos(ph)
			tracePhases(tr, tr.child(sp, "stage."+stageGroup(res.Stages, i), off, dur), ph)
			off += dur
		}
	}
	return res
}

func (st *olapState) rep(tr *tracer, root int) repResult {
	var r repResult
	plain := make([]*plan.Result, len(st.suite))
	for pi, p := range st.per {
		s := p.seed.opts.Setting
		env := p.seed.fresh()
		for qi, q := range st.suite {
			r.op(q.Name+"/"+s.String(), func() string {
				res := runQuery(tr, root, q, env, p.dataFor(q), nil)
				r.account(sideOf(s), res.WallCycles, res.Stats, simThreads, res.Check, res.Phases)
				filtered := stageRows(res, "filter")
				if filtered != int64(st.filters[qi]) {
					return fmt.Sprintf("filter rows %d, oracle %d", filtered, st.filters[qi])
				}
				if j := stageRows(res, "join"); j >= 0 && j != filtered {
					return fmt.Sprintf("foreign-key join produced %d rows from %d", j, filtered)
				}
				if pi == 0 {
					plain[qi] = res
				} else if w := plain[qi]; w == nil || res.Rows != w.Rows || res.Groups != w.Groups ||
					(p.alts[qi] == st.per[0].alts[qi] && res.Check != w.Check) {
					return fmt.Sprintf("result differs from the %s run", st.per[0].seed.opts.Setting)
				}
				return conserved(res.Stats)
			})
		}
	}
	env := st.spill.seed.fresh()
	for _, qi := range st.spillQ {
		q := st.suite[qi]
		r.op(q.Name+"/epc2x", func() string {
			res := runQuery(tr, root, q, env, st.spill.data[0], nil)
			// Not part of the slowdown pair: the resident DiE run is.
			r.account(unpaired, res.WallCycles, res.Stats, simThreads, res.Check, res.Phases)
			if res.Stats.EPCFaults == 0 {
				return "EPC at half the working set never paged"
			}
			if w := plain[qi]; w == nil || res.Rows != w.Rows || res.Groups != w.Groups {
				return "rows/groups differ from the resident run"
			}
			return conserved(res.Stats)
		})
	}
	return r
}

// --- serve_scale -----------------------------------------------------

// The serving mix: the scan-only q1, the sort-order q4 and the
// join-heavy q3 at 64 x 256 rows, weighted 6/3/1 (cmd/bench's scale
// section), named by their registry strings rather than through
// internal/query.
var (
	servePipelines = []string{"q1.filter-agg", "q4.filter-sort-limit", "q3.join-agg"}
	serveWeights   = []int{6, 3, 1}
)

// serveRPC is the requests-per-client count of each scenario family.
type serveRPC struct{ Open, C256, Closed, Fault int }

type serveScenario struct {
	name string
	w    *serve.Workload
	cfg  serve.Config
	side pairSide
}

type serveState struct {
	die, plain *serve.Workload
	scen       []serveScenario
}

func calibrateServe(s core.Setting, seed uint64) *serve.Workload {
	w, err := serve.Calibrate(serve.CalibrateOptions{
		Setting: s, NDim: 64, NFact: 256, MaxRows: 256, Pipelines: servePipelines, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return w
}

// serveScenarios builds the seven scenarios. Every interval scales off
// the DiE workload's calibrated service times, so the regimes (deep
// saturation in the open loops, lock collapse in the closed loop,
// storm-stretched deadlines under faults) do not depend on the seed.
func serveScenarios(die, plain *serve.Workload, seed uint64, workers int, rpc serveRPC) []serveScenario {
	var wsum, wtot, sum uint64
	for i, c := range die.Classes {
		wsum += uint64(serveWeights[i]) * c.ServiceCycles
		wtot += uint64(serveWeights[i])
		sum += c.ServiceCycles
	}
	gap := 10 * wsum / wtot // offered load = clients/10 worker-equivalents
	open := func(clients, n int, d serve.DispatchKind, batch int) serve.Config {
		return serve.Config{
			Clients: clients, Workers: workers, RequestsPerClient: n,
			Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
			Weights: serveWeights, JitterPct: 10, Seed: seed,
			Dispatch: d, Batch: batch,
			Arrival: &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: gap},
		}
	}
	s := sum / uint64(len(die.Classes))
	fc := sgx.DefaultFaultCosts()
	fc.Teardown = s / 2
	fc.RebuildBase = 3 * s
	crashStorm := serve.Config{
		Clients: 64, Workers: 8, RequestsPerClient: rpc.Fault,
		Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
		Weights: serveWeights, ThinkCycles: 12 * s, JitterPct: 10, Seed: seed,
		DeadlineCycles: 7 * s, MaxRetries: 7, BackoffBase: s, BackoffCap: 16 * s,
		AdmitDepth: 12,
		Fault: &serve.FaultPlan{
			Seed: seed + 4, StormInterval: 20 * s, StormLen: 9 * s, StormAEXGap: fc.AEX / 5,
			CrashInterval: 60 * s, FailPct: 2, RebuildPages: 64, Costs: fc,
		},
	}
	closed := serve.Config{
		Clients: 32, Workers: 16, RequestsPerClient: rpc.Closed,
		Sync: serve.SyncMutex, Mem: serve.MemDynamic,
		Weights: serveWeights, JitterPct: 10, Seed: seed,
	}
	batch := open(2048, rpc.Open, serve.DispatchSharded, 16)
	return []serveScenario{
		{"open_global", die, open(2048, rpc.Open, serve.DispatchGlobal, 0), unpaired},
		{"open_shard", die, open(2048, rpc.Open, serve.DispatchSharded, 0), unpaired},
		{"open_batch", die, batch, dieSide},
		{"open_batch_plain", plain, batch, plainSide},
		{"open_c256", die, open(256, rpc.C256, serve.DispatchGlobal, 0), unpaired},
		{"closed_mutex", die, closed, unpaired},
		{"fault", die, crashStorm, unpaired},
	}
}

func setupServe(seed uint64, sz *sizes) workloadState {
	st := &serveState{die: calibrateServe(core.SGXDiE, seed), plain: calibrateServe(core.PlainCPU, seed)}
	st.scen = serveScenarios(st.die, st.plain, seed, sz.ServeWorkers, sz.Serve)
	return st
}

func (st *serveState) oracle() {}
func (st *serveState) freeze() {}

// simulate runs one scenario under a span and checks its conservation
// laws: every request reaches exactly one terminal state.
func simulate(tr *tracer, root int, sc serveScenario) (*serve.Result, string) {
	sp := tr.begin("serve.Simulate."+sc.name, root)
	res, err := sc.w.Simulate(sc.cfg)
	tr.end(sp)
	if err != nil {
		return nil, err.Error()
	}
	want := sc.cfg.Clients * sc.cfg.RequestsPerClient
	if res.Requests != want || res.Requests != res.Succeeded+res.Failed || res.Breakdown.Requests != uint64(want) {
		return res, fmt.Sprintf("requests %d (breakdown %d), want %d = succeeded %d + failed %d",
			res.Requests, res.Breakdown.Requests, want, res.Succeeded, res.Failed)
	}
	return res, ""
}

// attempts is the serve loop's unit of work: every request plus every
// retry went through submit, dispatch and completion.
func attempts(res *serve.Result) uint64 { return res.Breakdown.Requests + res.Breakdown.Retries }

func (st *serveState) rep(tr *tracer, root int) repResult {
	var r repResult
	// The engine only ran during calibration; its counters stand in for
	// the workload's engine.sim_* metrics.
	r.sim.add(st.die.Stats, st.die.Stats.Cycles, 1)
	for _, sc := range st.scen {
		r.op("serve."+sc.name, func() string {
			res, msg := simulate(tr, root, sc)
			if res == nil {
				return msg
			}
			r.simCycles += res.MakespanCycles
			switch sc.side {
			case dieSide:
				r.dieCycles += res.MakespanCycles
			case plainSide:
				r.plainCycles += res.MakespanCycles
			}
			r.ops += attempts(res)
			r.checks = append(r.checks, res.MakespanCycles, res.Check)
			return msg
		})
	}
	return r
}

// --- isolated layer probes (traced run only) ---------------------------

// probeReps is how often each probe is timed; like host_rep_s, a probe
// reports its fastest repetition.
const probeReps = 3

// timed returns the fastest of probeReps timings of f, in seconds. prep,
// when non-nil, runs untimed before each repetition.
func timed(prep, f func()) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		xs[i] = time.Since(t0).Seconds()
	}
	return fastest(xs)
}

// plannerCold is how long the planner's calibrations took when they
// were cold, in seconds: the SGX DiE model with its paging coefficients,
// and that plus the Plain CPU model.
type plannerCold struct{ die, total float64 }

var plannerColdOnce *plannerCold

// calibratePlanner calibrates the two cost models olap_suite plans with,
// at the benchmark's thread count. plan caches a model for the life of
// the process, so only the first call measures; later calls return what
// it found. It must run before anything else plans a query.
func calibratePlanner() plannerCold {
	if plannerColdOnce == nil {
		t0 := time.Now()
		plan.ModelFor(core.SGXDiE, simThreads).EnsureKappa()
		die := time.Since(t0).Seconds()
		plan.ModelFor(core.PlainCPU, simThreads)
		plannerColdOnce = &plannerCold{die, time.Since(t0).Seconds()}
	}
	return *plannerColdOnce
}

// probes measures every workload-independent per-layer metric. Probes
// that report shares of a call's time record spans in tr and derive the
// shares from them.
func probes(seed uint64, sz *sizes, tr *tracer) map[string]float64 {
	m := map[string]float64{"plan.modelfor_ms": calibratePlanner().die * 1e3}
	plat := platform.XeonGold6326().Scaled(sz.ProbeScale)
	dieOpts := core.Options{Plat: plat, Setting: core.SGXDiE}
	probeCache(m, plat, seed, sz.ProbeAccesses)
	probeEngine(m, dieOpts, seed, sz)
	probeExec(m, dieOpts)
	probeKernels(m, dieOpts, seed, sz)
	probeScan(m, dieOpts, seed, sz)
	probeJoin(m, tr, seed, sz)
	probeSortAgg(m, dieOpts, seed, sz)
	probePlan(m, tr, seed, sz)
	probeServe(m, seed, sz)
	probeSetup(m, dieOpts, seed, sz)
	return m
}

func probeCache(m map[string]float64, plat *platform.Platform, seed uint64, n int) {
	r := rng.NewXorShift(rng.Mix(seed))
	perAccess := func(s float64) float64 { return s * 1e9 / float64(n) }

	// 95 % of the stream re-touches a set of lines half the L1's size.
	hot := uint64(plat.L1D.SizeBytes / plat.L1D.LineBytes / 2)
	lines := make([]uint64, n)
	for i := range lines {
		if r.Uint64n(20) == 0 {
			lines[i] = hot + r.Uint64n(1<<24)
		} else {
			lines[i] = r.Uint64n(hot)
		}
	}
	l1 := cache.New(plat.L1D)
	m["cache.l1_hit_probe_ns"] = perAccess(timed(nil, func() {
		for _, l := range lines {
			l1.AccessOrFill(l, false)
		}
	}))

	pages := make([]uint64, n)
	for i := range pages {
		pages[i] = r.Uint64n(1 << 16)
	}
	tlb := cache.NewTLB(plat.DTLB)
	m["cache.tlb_probe_ns"] = perAccess(timed(nil, func() {
		for _, p := range pages {
			tlb.Access(p)
		}
	}))

	// Ever-new lines, written: every access misses and, once the cache
	// is full, evicts a dirty line.
	l3 := cache.New(plat.L3)
	var next uint64
	m["cache.l3_miss_fill_ns"] = perAccess(timed(nil, func() {
		for i := 0; i < n; i++ {
			l3.AccessOrFill(next, true)
			next++
		}
	}))
	l3s := cache.New(plat.L3)
	next = 0
	m["cache.stream_fill_ns"] = perAccess(timed(nil, func() {
		for i := 0; i < n; i++ {
			l3s.AccessOrFillStream(next, false)
			next++
		}
	}))

	const news = 64
	m["cache.new_us"] = timed(nil, func() {
		for i := 0; i < news; i++ {
			cache.New(plat.L1D)
			cache.New(plat.L2)
			cache.New(plat.L3)
		}
	}) * 1e6 / news
}

// perSimAccess times body on a fresh thread of env and returns host
// nanoseconds per simulated access (loads + stores it charged).
func perSimAccess(env *core.Env, body func(t *engine.Thread)) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t := env.NewThread()
		t0 := time.Now()
		body(t)
		el := time.Since(t0)
		st := t.Stats()
		xs[i] = float64(el.Nanoseconds()) / float64(st.Loads+st.Stores)
	}
	return fastest(xs)
}

func probeEngine(m map[string]float64, opts core.Options, seed uint64, sz *sizes) {
	env := core.NewEnv(opts)
	buf := env.Space.Raw("probe", sz.ProbeBufBytes, env.DataRegion())
	n := sz.ProbeAccesses
	r := rng.NewXorShift(rng.Mix(seed + 1))
	slots := uint64(buf.Size / 8)
	offs, offs1 := make([]int64, n), make([]int64, n)
	for i := range offs {
		offs[i] = int64(r.Uint64n(slots)) * 8
		offs1[i] = int64(r.Uint64n(slots)) * 8
	}
	const batch = 64
	batched := func(f func(t *engine.Thread, lo, hi int)) func(*engine.Thread) {
		return func(t *engine.Thread) {
			for lo := 0; lo+batch <= n; lo += batch {
				f(t, lo, lo+batch)
			}
		}
	}
	// Sequential runs walk the buffer one 4 KiB page per call.
	paged := func(f func(t *engine.Thread, off int64)) func(*engine.Thread) {
		return func(t *engine.Thread) {
			off := int64(0)
			for done := 0; done < n; done += 4096 / 8 {
				f(t, off)
				if off += 4096; off+4096 > buf.Size {
					off = 0
				}
			}
		}
	}

	m["engine.load_ns"] = perSimAccess(env, func(t *engine.Thread) {
		for _, o := range offs {
			t.Load(&buf, o, 8, 0)
		}
	})
	m["engine.store_ns"] = perSimAccess(env, func(t *engine.Thread) {
		for _, o := range offs {
			t.Store(&buf, o, 8, 0, 0)
		}
	})
	m["engine.loadrun_ns"] = perSimAccess(env, paged(func(t *engine.Thread, off int64) { t.LoadRun(&buf, off, 8, 512, 0) }))
	m["engine.loadlines_ns"] = perSimAccess(env, paged(func(t *engine.Thread, off int64) { t.LoadLines(&buf, off, 64, 0) }))
	m["engine.storerun_ns"] = perSimAccess(env, paged(func(t *engine.Thread, off int64) { t.StoreRun(&buf, off, 8, 512, 0, 0) }))
	m["engine.storelinesnt_ns"] = perSimAccess(env, paged(func(t *engine.Thread, off int64) { t.StoreLinesNT(&buf, off, 64, 0, 0) }))
	gather := batched(func(t *engine.Thread, lo, hi int) { t.LoadGather(&buf, 8, offs[lo:hi], nil, nil) })
	m["engine.loadgather_ns"] = perSimAccess(env, gather)
	m["engine.storescatter_ns"] = perSimAccess(env, batched(func(t *engine.Thread, lo, hi int) { t.StoreScatter(&buf, 8, offs[lo:hi], nil, nil) }))
	m["engine.rmwscatter_ns"] = perSimAccess(env, batched(func(t *engine.Thread, lo, hi int) { t.RMWScatter(&buf, 8, offs[lo:hi], nil, nil) }))
	m["engine.loadchain_ns"] = perSimAccess(env, batched(func(t *engine.Thread, lo, hi int) {
		t.LoadChain(&buf, 8, offs[lo:hi], offs1[lo:hi], 2, nil, nil)
	}))
	m["engine.casload_ns"] = perSimAccess(env, batched(func(t *engine.Thread, lo, hi int) { t.CASLoad(&buf, 8, offs[lo:hi], nil, nil, nil) }))

	// The same gather with the EPC at half the buffer: the paging path.
	popts := opts
	popts.EPCPages = sz.ProbeBufBytes / 4096 / 2
	penv := core.NewEnv(popts)
	pbuf := penv.Space.Raw("probe", sz.ProbeBufBytes, penv.DataRegion())
	m["engine.paged_gather_ns"] = perSimAccess(penv, batched(func(t *engine.Thread, lo, hi int) { t.LoadGather(&pbuf, 8, offs[lo:hi], nil, nil) }))

	const news = 64
	m["engine.newthread_us"] = timed(nil, func() {
		for i := 0; i < news; i++ {
			env.NewThread()
		}
	}) * 1e6 / news
}

func probeExec(m map[string]float64, opts core.Options) {
	env := core.NewEnv(opts)
	const phases = 2000
	g := env.NewGroup(simThreads, nil)
	m["exec.phase_overhead_us"] = timed(g.ResetPhases, func() {
		for i := 0; i < phases; i++ {
			g.Phase("empty", func(*engine.Thread, int) {})
		}
	}) * 1e6 / phases
	const news = 64
	m["exec.newgroup_us"] = timed(nil, func() {
		for i := 0; i < news; i++ {
			env.NewGroup(simThreads, nil)
		}
	}) * 1e6 / news
}

func probeKernels(m map[string]float64, opts core.Options, seed uint64, sz *sizes) {
	env := core.NewEnv(opts)
	reg := env.DataRegion()
	n := sz.ProbeRows
	_, data := rel.GenFKPair(env.Space, n/4, n, reg, seed)
	const bits = 10
	hist := env.Space.AllocU32("k.hist", 1<<bits, reg)
	out := env.Space.AllocU64("k.out", n, reg)
	hcfg := kernels.HistConfig{Bits: bits, Unroll: kernels.AVXRegBudget, AVX: true, Spill: env.Space.AllocU32("k.spill", 64, reg)}
	scfg := kernels.ScatterConfig{Bits: bits, Unroll: 8, WC: env.Space.AllocU64("k.wc", (1<<bits)*8, reg)}
	clear := func() {
		for i := range hist.D {
			hist.D[i] = 0
		}
	}
	perRow := func(s float64) float64 { return s * 1e9 / float64(n) }
	t := env.NewThread()
	m["kernels.histogram_ns_per_row"] = perRow(timed(clear, func() {
		kernels.Histogram(t, data.Tup, 0, n, hist, 0, hcfg)
	}))
	// The scatter advances its cursors, so each repetition rebuilds them
	// (histogram, then exclusive prefix sums in place) untimed.
	cursors := func() {
		clear()
		kernels.Histogram(t, data.Tup, 0, n, hist, 0, hcfg)
		kernels.PrefixSum(t, hist, 0, 1<<bits, 0)
	}
	m["kernels.scatter_ns_per_row"] = perRow(timed(cursors, func() {
		kernels.Scatter(t, data.Tup, 0, n, out, hist, 0, scfg)
	}))

	buf := env.Space.Raw("k.arr", sz.ProbeBufBytes, reg)
	ops := sz.ProbeAccesses
	m["kernels.gatheraccess_ns_per_op"] = timed(nil, func() {
		kernels.GatherAccess(env.NewThread(), buf, ops, false, seed)
	}) * 1e9 / float64(ops)
	m["kernels.streamread_ns_per_line"] = timed(nil, func() {
		kernels.StreamRead(env.NewThread(), buf, 0, buf.Size)
	}) * 1e9 / float64(buf.Size/64)
}

func probeScan(m map[string]float64, opts core.Options, seed uint64, sz *sizes) {
	env := core.NewEnv(opts)
	reg := env.DataRegion()
	col := env.Space.AllocU8("col", sz.ProbeScanBytes, reg)
	scan.GenColumn(col, seed)
	bv := scan.Options{Threads: simThreads, Pred: scanPred, Bits: env.Space.AllocU64("scan.bits", col.Len()/64+2, reg)}
	ids := scan.Options{Threads: simThreads, Pred: scanPred, RowIDs: true, IDs: env.Space.AllocU64("scan.ids", col.Len()+64, reg)}
	rows := float64(col.Len())
	m["scan.bv_rows_per_s"] = rows / timed(nil, func() { scan.Run(env, col, bv) })
	var sc *scan.Result
	m["scan.rowid_rows_per_s"] = rows / timed(nil, func() { sc = scan.Run(env, col, ids) })
	// Compact thread 0's run of row ids and shuffle it: the gather then
	// fetches at unclustered positions, as after an index lookup.
	n := sc.IDRuns[0].Count
	scan.ShuffleIDs(sc.IDs, n, seed)
	gopt := scan.GatherOptions{Threads: simThreads, Out: env.Space.AllocU8("scan.gathered", n, reg)}
	m["scan.gather_rows_per_s"] = float64(n) / timed(nil, func() { scan.Gather(env, col, sc.IDs, n, gopt) })
}

// phaseShare returns the share of the named call spans' time that their
// named phase children account for.
func phaseShare(spans []span, call string, phases ...string) float64 {
	calls := map[int]bool{}
	var total int64
	for _, s := range spans {
		if s.Name == call {
			calls[s.ID] = true
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	part := spanSum(spans, func(s span) bool {
		if !calls[s.Parent] {
			return false
		}
		for _, p := range phases {
			if s.Name == "phase."+p {
				return true
			}
		}
		return false
	})
	return float64(part) / float64(total)
}

func probeJoin(m map[string]float64, tr *tracer, seed uint64, sz *sizes) {
	nR, nS := joinRows(sz.ProbeJoinScale)
	opts := core.Options{Plat: platform.XeonGold6326().Scaled(sz.ProbeJoinScale), Setting: core.SGXDiE}
	env := core.NewEnv(opts)
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), seed)
	es := newEnvSeed(env, opts)
	rows := float64(nR + nS)
	run := func(alg join.Algorithm, s *envSeed) func() {
		return func() {
			sp := tr.begin("join."+alg.Name()+".Run", noSpan)
			res, err := alg.Run(s.fresh(), build, probe, join.Options{Threads: simThreads, Optimized: true})
			tr.end(sp)
			if err != nil {
				panic(err)
			}
			tracePhases(tr, sp, res.Phases)
		}
	}
	m["join.rho_rows_per_s"] = rows / timed(nil, run(join.NewRHO(), es))
	m["join.pht_rows_per_s"] = rows / timed(nil, run(join.NewPHT(), es))
	m["join.mway_rows_per_s"] = rows / timed(nil, run(join.NewMWAY(), es))
	m["join.inl_rows_per_s"] = rows / timed(nil, run(join.NewINL(), es))
	m["join.rho_partition_share"] = phaseShare(tr.spans, "join.RHO.Run", "Hist1", "Copy1", "Hist2", "Copy2")
	m["join.rho_probe_share"] = phaseShare(tr.spans, "join.RHO.Run", "Join")
	m["join.pht_build_share"] = phaseShare(tr.spans, "join.PHT.Run", "Build")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(join.NewRHO(), es)()
	runtime.ReadMemStats(&after)
	m["join.rho_allocs_per_run"] = float64(after.Mallocs - before.Mallocs)

	// GRACE with the EPC at half the inputs: the spill path.
	gopts := opts
	gopts.EPCPages = int64(nR+nS) * rel.TupleBytes / 4096 / 2
	ges := &envSeed{opts: gopts, use: es.use}
	m["join.grace_rows_per_s"] = rows / timed(nil, run(join.NewGrace(), ges))
}

func probeSortAgg(m map[string]float64, opts core.Options, seed uint64, sz *sizes) {
	env := core.NewEnv(opts)
	reg := env.DataRegion()
	n := sz.ProbeRows
	groups := n / 4
	_, fact := rel.GenFKPair(env.Space, groups, n, reg, seed)
	rows := float64(n)

	// The sort consumes its input as work area: refill it each time.
	work := env.Space.AllocU64("sort.work", n, reg)
	sopt := sortop.Options{
		Threads: simThreads, MaxKey: uint32(groups + 1),
		Tmp: env.Space.AllocU64("sort.tmp", n, reg), Out: env.Space.AllocU64("sort.out", n, reg),
	}
	m["sort.run_rows_per_s"] = rows / timed(func() { copy(work.D, fact.Tup.D) }, func() { sortop.Run(env, work, n, sopt) })
	const k = 256
	topt := sortop.TopKOptions{
		Threads: simThreads,
		Heap:    env.Space.AllocU64("topk.heap", simThreads*k, reg),
		Tmp:     env.Space.AllocU64("topk.tmp", simThreads*k, reg),
		Out:     env.Space.AllocU64("topk.out", k, reg),
	}
	m["sort.topk_rows_per_s"] = rows / timed(nil, func() { sortop.TopK(env, fact.Tup, n, k, topt) })

	ins := []agg.Input{{Tup: fact.Tup, N: n}}
	aopt := agg.Options{
		Threads: simThreads, Sel: agg.ByKey, Groups: groups,
		Out: env.Space.AllocU64("agg.out", agg.EntryWords*n, reg), Parts: env.Space.AllocU64("agg.parts", n, reg),
	}
	m["agg.hash_rows_per_s"] = rows / timed(nil, func() { agg.Run(env, ins, aopt) })
	aopt.Parts = nil
	m["agg.spill_rows_per_s"] = rows / timed(nil, func() { agg.SpillRun(env, ins, aopt) })
}

func probePlan(m map[string]float64, tr *tracer, seed uint64, sz *sizes) {
	p := setupOlapSetting(core.SGXDiE, 0, true, seed, sz.ProbeScale, sz.ProbeDim, sz.ProbeFact)
	suite := plan.Suite()

	env := p.seed.fresh()
	m["plan.choose_us"] = timed(nil, func() {
		for _, q := range suite {
			q.Plan(env, p.dataFor(q).ds, simThreads)
		}
	}) * 1e6 / float64(len(suite))

	// Suite passes with and without a cycle profiler attached, in turn.
	pass := func(t *tracer, profile bool) float64 {
		env := p.seed.fresh()
		t0 := time.Now()
		for _, q := range suite {
			var prof *obs.Profiler
			if profile {
				prof = obs.NewProfiler("run")
			}
			runQuery(t, noSpan, q, env, p.dataFor(q), prof)
		}
		return time.Since(t0).Seconds()
	}
	pass(nil, false) // lazily allocated scratch lands before the frozen passes
	p.seed.freeze()
	var bare, profiled []float64
	for i := 0; i < probeReps; i++ {
		bare = append(bare, pass(tr, false))
		profiled = append(profiled, pass(nil, true))
	}
	m["plan.suite_rows_per_s"] = float64(len(suite)*sz.ProbeFact) / fastest(bare)
	m["obs.profiler_overhead_frac"] = fastest(profiled)/fastest(bare) - 1

	self := selfTimes(tr.spans)
	var run, glue, stages int64
	group := map[string]int64{}
	for i, s := range tr.spans {
		switch {
		case s.Name == "plan.Query.Run":
			run += s.dur()
			glue += self[i]
		case len(s.Name) > 6 && s.Name[:6] == "stage.":
			stages += s.dur()
			group[s.Name[6:]] += s.dur()
		}
	}
	m["plan.execute_glue_frac"] = float64(glue) / float64(run)
	for _, g := range []string{"filter", "gather", "join", "agg", "order"} {
		m["plan.stage_share."+g] = float64(group[g]) / float64(stages)
	}
}

func probeServe(m map[string]float64, seed uint64, sz *sizes) {
	var die *serve.Workload
	m["serve.calibrate_ms"] = timed(nil, func() { die = calibrateServe(core.SGXDiE, seed) }) * 1e3
	scen := map[string]serveScenario{}
	for _, sc := range serveScenarios(die, die, seed, sz.ServeWorkers, sz.ProbeServe) {
		scen[sc.name] = sc
	}
	results := map[string]*serve.Result{}
	rate := func(name string) float64 {
		sc := scen[name]
		s := timed(nil, func() {
			res, msg := simulate(nil, noSpan, sc)
			if msg != "" {
				panic("serve probe " + name + ": " + msg)
			}
			results[name] = res
		})
		return float64(attempts(results[name])) / s
	}
	m["serve.open_global_req_per_s"] = rate("open_global")
	m["serve.open_shard_req_per_s"] = rate("open_shard")
	m["serve.open_batch_req_per_s"] = rate("open_batch")
	m["serve.open_c256_req_per_s"] = rate("open_c256")
	m["serve.closed_mutex_req_per_s"] = rate("closed_mutex")
	m["serve.fault_req_per_s"] = rate("fault")

	batch := scen["open_batch"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _ := simulate(nil, noSpan, batch)
	runtime.ReadMemStats(&after)
	m["serve.allocs_per_req"] = float64(after.Mallocs-before.Mallocs) / float64(attempts(res))
	m["serve.alloc_bytes_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(attempts(res))

	m["serve.sim_goodput_qps"] = res.GoodputQPS
	m["serve.sim_p99_cycles"] = float64(res.P99)
	m["serve.sim_transitions_per_req"] = float64(res.Breakdown.Transitions) / float64(res.Breakdown.Requests)
	f := results["fault"]
	m["serve.sim_shed_frac"] = float64(f.Breakdown.Shed) / float64(attempts(f))
	g := results["open_global"].Breakdown
	m["serve.sim_queue_wait_frac"] = float64(g.QueueWaitCycles) /
		float64(g.QueueWaitCycles+g.LockCycles+g.TransitionCycles+g.CommitWaitCycles+g.CommitCycles+g.ServiceCycles)

	// The batch scenario again with a span tracer and a gauge timeline
	// attached, in turn with the bare one.
	observed := batch
	var bare, traced []float64
	for i := 0; i < probeReps; i++ {
		observed.cfg.Trace = obs.NewTracer(1 << 12)
		observed.cfg.Metrics = obs.NewMetrics(1<<16, 1<<10)
		for _, sc := range []struct {
			s   serveScenario
			out *[]float64
		}{{batch, &bare}, {observed, &traced}} {
			t0 := time.Now()
			simulate(nil, noSpan, sc.s)
			*sc.out = append(*sc.out, time.Since(t0).Seconds())
		}
	}
	m["obs.tracer_overhead_frac"] = fastest(traced)/fastest(bare) - 1

	h := obs.NewHistogram()
	const records = 1 << 20
	m["obs.hist_record_ns"] = timed(nil, func() {
		for v := uint64(0); v < records; v++ {
			h.Record(v * 977)
		}
	}) * 1e9 / records
}

// probeSetup measures what every workload's set-up is made of.
func probeSetup(m map[string]float64, opts core.Options, seed uint64, sz *sizes) {
	const news = 64
	m["core.newenv_us"] = timed(nil, func() {
		for i := 0; i < news; i++ {
			core.NewEnv(opts)
		}
	}) * 1e6 / news

	env := core.NewEnv(opts)
	reg := env.DataRegion()
	const allocs, words = 8, 1 << 20
	m["mem.alloc_mb_per_s"] = allocs * words * 8 / 1e6 / timed(nil, func() {
		for i := 0; i < allocs; i++ {
			env.Space.AllocU64("probe", words, reg)
		}
	})

	n := sz.ProbeRows
	build, probe := rel.Alloc(env.Space, "R", n/4, reg), rel.Alloc(env.Space, "S", n, reg)
	m["rel.gen_rows_per_s"] = float64(n/4+n) / timed(nil, func() { rel.GenFK(build, probe, seed) })
	col := env.Space.AllocU8("col", sz.ProbeScanBytes, reg)
	m["scan.gencolumn_mb_per_s"] = float64(sz.ProbeScanBytes) / 1e6 / timed(nil, func() { scan.GenColumn(col, seed) })
}
