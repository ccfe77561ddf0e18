package bench

import (
	"fmt"
	"sync"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

// scenario is one named serving configuration, built on the
// calibration it runs on.
type scenario struct {
	name string
	cal  serve.CalibrateOptions // the entry fills in Setting and Reference
	cfg  func(w *serve.Workload) serve.Config
}

// Serving scenario shape: a pool saturated by many closed-loop clients
// issuing small queries — the regime where the paper's two concurrency
// collapses (SDK mutex contention, Section 4.4; serialized EDMM commits,
// Fig 12) dominate.
const (
	serveClients    = 32
	serveWorkers    = 16
	serveReqsPerCli = 8
)

// serveScenarios is every synchronization model crossed with both
// memory-provisioning modes. Identical in quick and full runs, so the
// golden gate pins all of them and the collapse ratios are comparable.
func serveScenarios() []scenario {
	var out []scenario
	for _, sync := range []serve.SyncKind{serve.SyncMutex, serve.SyncSpin, serve.SyncLockFree} {
		for _, mem := range []serve.MemMode{serve.MemPreSized, serve.MemDynamic} {
			cfg := serve.Config{
				Clients: serveClients, Workers: serveWorkers, RequestsPerClient: serveReqsPerCli,
				Sync: sync, Mem: mem, JitterPct: 10, Seed: 7,
			}
			out = append(out, scenario{name: cfg.Name(), cfg: func(*serve.Workload) serve.Config { return cfg }})
		}
	}
	return out
}

// Fault-injected serving: the resilience analogue of the spill gate.
// Three fault plans — fault-free, AEX interrupt storms, and the
// crash-storm (storms + enclave crash-loop + transient aborts) — are
// each served twice: once behind queue-depth admission control and once
// with the naive unbounded queue. Both variants carry identical
// client-side deadlines and capped-backoff retries; only the admission
// limit differs. Every timing constant scales off the calibrated mean
// service time, so quick and full runs exercise the same regime.
const (
	faultClients    = 64
	faultWorkers    = 8
	faultReqsPerCli = 4
	faultAdmitDepth = 12
)

// crashStorm returns the crash-storm fault plan for a mean service time
// s. Every interval is a multiple of s, so the scenario shape — storm
// windows that stretch service past the deadline, rebuild outages
// spanning several deadlines — is invariant under calibration sizes and
// platform scales.
func crashStorm(s uint64) *serve.FaultPlan {
	fc := sgx.DefaultFaultCosts()
	// Enclave rebuild outages scale with the calibrated service time:
	// ~3.5s of serialized rebuild per crash against a 60s per-worker
	// crash interval keeps the kernel enclave-management lock under
	// saturation (the admission variant must be able to ride the outages
	// out).
	fc.Teardown = s / 2
	fc.RebuildBase = 3 * s
	return &serve.FaultPlan{
		Seed: 11, StormInterval: 20 * s, StormLen: 9 * s,
		// Each AEX stalls ~5x its gap: service stretches ~6x inside a
		// storm window, pushing queue waits past the deadline.
		StormAEXGap:   fc.AEX / 5,
		CrashInterval: 60 * s, FailPct: 2, RebuildPages: 64, Costs: fc,
	}
}

// faultScenarios is the (fault plan x admission) sweep. The client-side
// policy scales with the mean service time s. Think time keeps the pool
// healthy (offered load ~60% of capacity) though heavily oversubscribed
// in clients, so that once service times stretch the naive unbounded
// queue can amplify to several times the worker count. The deadline
// sits between the fault-free p99 and a storm-stretched service time:
// fault-free runs keep a small timeout tail while storm windows push
// whole queue generations past it; the backoff cap lets shed clients
// ride out an outage. The storm plan is the crash-storm's AEX storms
// alone.
func faultScenarios() []scenario {
	var out []scenario
	for _, tag := range []string{"none", "storm", "crash"} {
		for _, admit := range []string{"admit", "naive"} {
			out = append(out, scenario{name: "fault." + tag + "." + admit, cfg: func(w *serve.Workload) serve.Config {
				var s uint64
				for _, c := range w.Classes {
					s += c.ServiceCycles
				}
				s /= uint64(len(w.Classes)) // the mean calibrated service time
				cfg := serve.Config{
					Clients: faultClients, Workers: faultWorkers, RequestsPerClient: faultReqsPerCli,
					Sync: serve.SyncLockFree, Mem: serve.MemPreSized, JitterPct: 10, Seed: 7,
					ThinkCycles: 12 * s, DeadlineCycles: 7 * s, MaxRetries: 7, BackoffBase: s, BackoffCap: 16 * s,
				}
				if admit == "admit" {
					cfg.AdmitDepth = faultAdmitDepth
				}
				if tag != "none" {
					cfg.Fault = crashStorm(s)
				}
				if tag == "storm" {
					cfg.Fault.CrashInterval, cfg.Fault.FailPct, cfg.Fault.RebuildPages = 0, 0, 0
				}
				return cfg
			}})
		}
	}
	return out
}

// Production-scale serving: the shard_scaling_ok scenarios. An open-loop
// Poisson client population — far past what the closed-loop scenarios
// above can express — drives a 64-worker DiE pool through three
// dispatch shapes: the single global lock-free queue, per-worker shards
// with deterministic work stealing, and shards plus request batching
// (one enclave transition pair amortized over up to scaleBatch queued
// requests). The per-client mean gap is scaleGapServiceMult times the
// calibrated mean service time (at c clients the offered load is
// c/scaleGapServiceMult worker-equivalents), so at >= 1024 clients the
// offered load deep-saturates even the batched pool and measured
// throughput is each shape's capacity, not the arrival rate.
const (
	scaleWorkers        = 64
	scaleReqsPerCli     = 16
	scaleBatch          = 16
	scaleGapServiceMult = 10
)

// scaleClients is the open-loop population axis; the gate asserts at
// the saturated points (>= 1024), the 256-client point documents the
// saturation edge of the global queue.
var scaleClients = []int{256, 1024, 2048}

// The scale entries' dedicated calibration: three tiny pipelines (the
// scan-only q1, the sort-order q4, the join-heavy q3, mixed 6/3/1) keep
// the mean service time small enough that per-attempt enclave
// transitions dominate the unbatched shapes — the regime batching
// targets.
var (
	scalePipelines = []string{plan.Q1Name, plan.Q4Name, plan.Q3Name}
	scaleWeights   = []int{6, 3, 1}
)

func scaleName(variant string, clients int) string {
	return fmt.Sprintf("scale.%s.c%d", variant, clients)
}

// scaleCalibration is the scale entries' calibration.
var scaleCalibration = serve.CalibrateOptions{
	Setting: core.SGXDiE, NDim: 64, NFact: 256, MaxRows: 256, Pipelines: scalePipelines,
}

// scaleScenarios is the (clients x dispatch shape) sweep on
// scaleCalibration.
func scaleScenarios() []scenario {
	var out []scenario
	for _, nc := range scaleClients {
		for _, v := range []struct {
			tag      string
			dispatch serve.DispatchKind
			batch    int
		}{{"global", serve.DispatchGlobal, 0}, {"shard", serve.DispatchSharded, 0}, {"shard.batch", serve.DispatchSharded, scaleBatch}} {
			out = append(out, scenario{name: scaleName(v.tag, nc), cal: scaleCalibration, cfg: func(w *serve.Workload) serve.Config {
				var wsum, wtot uint64
				for i, c := range w.Classes {
					wsum += uint64(scaleWeights[i]) * c.ServiceCycles
					wtot += uint64(scaleWeights[i])
				}
				return serve.Config{
					Clients: nc, Workers: scaleWorkers, RequestsPerClient: scaleReqsPerCli,
					Sync: serve.SyncLockFree, Mem: serve.MemPreSized, Weights: scaleWeights, JitterPct: 10, Seed: 7,
					Dispatch: v.dispatch, Batch: v.batch,
					Arrival: &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: scaleGapServiceMult * (wsum / wtot)},
				}
			}})
		}
	}
	return out
}

// calibration is one serve.Calibrate result.
type calibration struct {
	w   *serve.Workload
	err error
}

// calKey names a calibration in bencher.cals and calibrations.
func calKey(o serve.CalibrateOptions) string { return fmt.Sprintf("%+v", o) }

// calibrations shares serve.Calibrate results between the suite runs
// and replays of one process: a *sharedCal per calKey, calibrated once
// by whichever run asks first. Calibrate is deterministic and the
// Workload it returns is only read afterwards, so every run sees what
// its own calibration would have given it.
var calibrations sync.Map

type sharedCal struct {
	once sync.Once
	cal  calibration
}

// calibrated returns o's calibration, running it on first use.
func calibrated(o serve.CalibrateOptions) calibration {
	v, _ := calibrations.LoadOrStore(calKey(o), &sharedCal{})
	c := v.(*sharedCal)
	c.once.Do(func() {
		w, err := serve.Calibrate(o)
		c.cal = calibration{w, err}
	})
	return c.cal
}

// calibrate fetches every calibration the entries read and b.cals lacks,
// on at most workers goroutines: each setting's serve entries calibrate
// once per engine path, the fault entries reuse the SGX DiE pair, the
// scale entries have their own. Entries then only read b.cals.
func (b *bencher) calibrate(es []Entry, workers int) {
	var todo []serve.CalibrateOptions
	for i := range es {
		e := &es[i]
		if e.cal == nil {
			continue
		}
		o := *e.cal
		o.Setting = e.Setting
		paths := []bool{false}
		if e.twinned() {
			paths = append(paths, true)
		}
		for _, ref := range paths {
			o.Reference = ref
			k := calKey(o)
			if _, ok := b.cals[k]; !ok {
				b.cals[k] = calibration{}
				todo = append(todo, o)
			}
		}
	}
	done := make([]calibration, len(todo))
	inOrder(len(todo), workers, func(i int) { done[i] = calibrated(todo[i]) },
		func(i int) error { b.cals[calKey(todo[i])] = done[i]; return nil })
}

// servingEntry is sc's traced entry: its run replays sc on the
// calibration for the entry's setting and engine path.
func servingEntry(sc scenario, fam *family, line func(*bencher, *Replayed)) Entry {
	return Entry{fam: fam, Traced: true, twin: true, check: line, cal: &sc.cal, run: func(b *bencher, c prepCtx) ([]sample, error) {
		o := sc.cal
		o.Setting, o.Reference = c.setting, c.ref
		cal := b.cals[calKey(o)]
		if cal.err != nil {
			return nil, cal.err
		}
		w := cal.w
		res, err := simulate(w, sc.cfg(w), c.rings, c.pctl)
		if err != nil {
			return nil, err
		}
		c.out.Serve, c.out.Classes = res, w.Classes
		return []sample{{res.MakespanCycles, res.Check, w.Stats, res.Breakdown, res.DispatchStats}}, nil
	}}
}

// simulate replays one scenario with a tracer and metrics timeline
// attached: the golden gate downstream then doubles as the
// zero-perturbation proof for the observability layer, and each run's
// histogram percentiles are checked against the exact sorted-slice
// oracle (>= the exact value, within one bucket width; Max exact), each
// violation appended to pctl. The tracer and timeline keep r's ring
// capacities.
func simulate(w *serve.Workload, cfg serve.Config, r rings, pctl *[]string) (*serve.Result, error) {
	cfg.Trace = obs.NewTracer(r.spans)
	cfg.Metrics = obs.NewMetrics(1<<16, r.samples)
	res, err := w.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	e50, e95, e99, emax := res.ExactPercentiles()
	label := res.Config.Name() + "/" + res.Setting
	for _, pc := range []struct {
		name       string
		got, exact uint64
	}{{"p50", res.P50, e50}, {"p95", res.P95, e95}, {"p99", res.P99, e99}} {
		if pc.got < pc.exact || pc.got-pc.exact > obs.BucketWidth(pc.exact) {
			*pctl = append(*pctl, fmt.Sprintf("%s: %s = %d, exact %d (bucket width %d)",
				label, pc.name, pc.got, pc.exact, obs.BucketWidth(pc.exact)))
		}
	}
	if res.Max != emax {
		*pctl = append(*pctl, fmt.Sprintf("%s: max = %d, exact %d", label, res.Max, emax))
	}
	return res, nil
}

// serveFamily calibrates the five pipelines once per setting (small
// serving-sized queries) and replays the sync x memory matrix on the
// virtual clock; under SGX DiE with a reference twin, whose calibration
// the fault entries reuse.
var serveFamily = &family{
	head: func(b *bencher) {
		b.printf("== serve (deterministic serving scenarios, %d clients / %d workers) ==\n", serveClients, serveWorkers)
	},
	gate: func(b *bencher) error { return b.gate("serve_collapse_ok") },
}

func serveLine(b *bencher, r *Replayed) {
	res := r.Serve
	b.printf("  %-18s %-11s qps=%-10.0f p50=%-9d p99=%-9d queueWait=%-11d commitWait=%d\n", r.Workload, r.Setting,
		res.ThroughputQPS, res.P50, res.P99, res.Breakdown.QueueWaitCycles, res.Breakdown.CommitWaitCycles)
}

// faultFamily replays the fault-injected scenarios under SGX DiE; the
// crash-storm pair anchors the graceful-degradation gate.
var faultFamily = &family{
	head: func(b *bencher) {
		b.printf("== fault (fault-injected serving, SGX DiE, %d clients / %d workers) ==\n", faultClients, faultWorkers)
	},
	gate: func(b *bencher) error { return b.gate("fault_degradation_ok") },
}

func faultLine(b *bencher, r *Replayed) {
	res, k := r.Serve, r.Serve.Breakdown
	b.printf("  %-18s goodput=%-9.0f p99=%-11d ok=%-4d fail=%-3d timeout=%-4d retry=%-4d shed=%-4d crash=%-3d aex=%d\n", r.Workload,
		res.GoodputQPS, res.P99, res.Succeeded, res.Failed, k.Timeouts, k.Retries, k.Shed, k.Crashes, k.AEXEvents)
}

// scaleFamily replays the open-loop sharded/batched scenarios under SGX
// DiE on their dedicated calibration.
var scaleFamily = &family{
	head: func(b *bencher) {
		b.printf("== scale (open-loop sharded/batched serving, SGX DiE, %d workers) ==\n", scaleWorkers)
	},
	gate: func(b *bencher) error { return b.gate("shard_scaling_ok") },
}

func scaleLine(b *bencher, r *Replayed) {
	res := r.Serve
	b.printf("  %-22s qps=%-10.0f p50=%-9d p99=%-10d steals=%-6d batches=%-6d transitions=%d\n", r.Workload,
		res.ThroughputQPS, res.P50, res.P99, res.DispatchStats.Steals, res.DispatchStats.Batches, res.Breakdown.Transitions)
}
