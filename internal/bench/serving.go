package bench

import (
	"fmt"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

// scenario is one named serving configuration.
type scenario struct {
	name string
	cfg  serve.Config
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
			out = append(out, scenario{cfg.Name(), cfg})
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

// MeanService is the mean calibrated service time over w's classes.
func MeanService(w *serve.Workload) uint64 {
	var sum uint64
	for _, c := range w.Classes {
		sum += c.ServiceCycles
	}
	return sum / uint64(len(w.Classes))
}

// CrashStorm returns the crash-storm fault plan for a mean service time
// s. Every interval is a multiple of s, so the scenario shape — storm
// windows that stretch service past the deadline, rebuild outages
// spanning several deadlines — is invariant under calibration sizes and
// platform scales (cmd/diag -fault replays the same plan).
func CrashStorm(s uint64) *serve.FaultPlan {
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

// FaultClient gives cfg the fault scenarios' client-side policy for a
// mean service time s. Think time keeps the pool healthy (offered load
// ~60% of capacity) though heavily oversubscribed in clients, so that
// once service times stretch the naive unbounded queue can amplify to
// several times the worker count. The deadline sits between the
// fault-free p99 and a storm-stretched service time: fault-free runs
// keep a small timeout tail while storm windows push whole queue
// generations past it; the backoff cap lets shed clients ride out an
// outage.
func FaultClient(cfg serve.Config, s uint64) serve.Config {
	cfg.ThinkCycles, cfg.DeadlineCycles = 12*s, 7*s
	cfg.MaxRetries, cfg.BackoffBase, cfg.BackoffCap = 7, s, 16*s
	return cfg
}

// faultScenarios is the (fault plan x admission) sweep for w.
func faultScenarios(w *serve.Workload) []scenario {
	s := MeanService(w)
	base := FaultClient(serve.Config{
		Clients: faultClients, Workers: faultWorkers, RequestsPerClient: faultReqsPerCli,
		Sync: serve.SyncLockFree, Mem: serve.MemPreSized, JitterPct: 10, Seed: 7,
	}, s)
	crash := CrashStorm(s)
	storm := *crash
	storm.CrashInterval, storm.FailPct, storm.RebuildPages = 0, 0, 0
	var out []scenario
	for _, p := range []struct {
		tag  string
		plan *serve.FaultPlan
	}{{"none", nil}, {"storm", &storm}, {"crash", crash}} {
		admit, naive := base, base
		admit.Fault, naive.Fault, admit.AdmitDepth = p.plan, p.plan, faultAdmitDepth
		out = append(out, scenario{"fault." + p.tag + ".admit", admit}, scenario{"fault." + p.tag + ".naive", naive})
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

// The scale section's dedicated calibration: three tiny pipelines (the
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

// scaleScenarios is the (clients x dispatch shape) sweep for w.
func scaleScenarios(w *serve.Workload) []scenario {
	var wsum, wtot uint64
	for i, c := range w.Classes {
		wsum += uint64(scaleWeights[i]) * c.ServiceCycles
		wtot += uint64(scaleWeights[i])
	}
	arrival := &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: scaleGapServiceMult * (wsum / wtot)}
	var out []scenario
	for _, nc := range scaleClients {
		for _, v := range []struct {
			tag      string
			dispatch serve.DispatchKind
			batch    int
		}{{"global", serve.DispatchGlobal, 0}, {"shard", serve.DispatchSharded, 0}, {"shard.batch", serve.DispatchSharded, scaleBatch}} {
			out = append(out, scenario{scaleName(v.tag, nc), serve.Config{
				Clients: nc, Workers: scaleWorkers, RequestsPerClient: scaleReqsPerCli,
				Sync: serve.SyncLockFree, Mem: serve.MemPreSized, Weights: scaleWeights, JitterPct: 10, Seed: 7,
				Dispatch: v.dispatch, Batch: v.batch, Arrival: arrival,
			}})
		}
	}
	return out
}

// simulate replays one scenario with a tracer and metrics timeline
// attached: the golden gate downstream then doubles as the
// zero-perturbation proof for the observability layer, and each run's
// histogram percentiles are checked against the exact sorted-slice
// oracle (>= the exact value, within one bucket width; Max exact).
func (b *bencher) simulate(w *serve.Workload, sc scenario) (*serve.Result, sample, error) {
	sc.cfg.Trace = obs.NewTracer(1 << 12)
	sc.cfg.Metrics = obs.NewMetrics(1<<16, 1<<10)
	res, err := w.Simulate(sc.cfg)
	if err != nil {
		return nil, sample{}, fmt.Errorf("%s: %w", sc.name, err)
	}
	e50, e95, e99, emax := res.ExactPercentiles()
	label := res.Config.Name() + "/" + res.Setting
	for _, pc := range []struct {
		name       string
		got, exact uint64
	}{{"p50", res.P50, e50}, {"p95", res.P95, e95}, {"p99", res.P99, e99}} {
		if pc.got < pc.exact || pc.got-pc.exact > obs.BucketWidth(pc.exact) {
			b.pctlViolations = append(b.pctlViolations, fmt.Sprintf("%s: %s = %d, exact %d (bucket width %d)",
				label, pc.name, pc.got, pc.exact, obs.BucketWidth(pc.exact)))
		}
	}
	if res.Max != emax {
		b.pctlViolations = append(b.pctlViolations, fmt.Sprintf("%s: max = %d, exact %d", label, res.Max, emax))
	}
	return res, sample{res.MakespanCycles, res.Check, w.Stats, res.Breakdown, res.DispatchStats}, nil
}

// served replays one scenario on the fast-calibrated workload, records it
// (serve list, sweep entry, gate measurements) and demands that a
// reference-calibrated twin, when given, reproduce it bit for bit.
func (b *bencher) served(sc scenario, w, refW *serve.Workload) (*serve.Result, error) {
	res, fast, err := b.simulate(w, sc)
	if err != nil {
		return nil, err
	}
	b.record(sc.name, w.Setting, fast)
	b.rep.Serve = append(b.rep.Serve, res)
	b.vals[key(sc.name, w.Setting, throughput)] = res.ThroughputQPS
	b.vals[key(sc.name, w.Setting, goodput)] = res.GoodputQPS
	b.vals[key(sc.name, w.Setting, p99)] = float64(res.P99)
	if refW != nil {
		_, ref, err := b.simulate(refW, sc)
		if err != nil {
			return nil, err
		}
		b.equivalent(sc.name, fast, ref)
	}
	return res, nil
}

// calibrated calibrates o on the fast path and, for a twin, the per-op
// reference path too.
func calibrated(o serve.CalibrateOptions, twin bool) (w, refW *serve.Workload, err error) {
	if w, err = serve.Calibrate(o); err != nil || !twin {
		return w, nil, err
	}
	o.Reference = true
	refW, err = serve.Calibrate(o)
	return w, refW, err
}

// serve calibrates the five pipelines once per setting (small
// serving-sized queries) and replays the sync x memory matrix on the
// virtual clock; under SGX DiE with a reference twin, whose calibration
// the fault section reuses.
func (b *bencher) serve() error {
	b.printf("== serve (deterministic serving scenarios, %d clients / %d workers) ==\n", serveClients, serveWorkers)
	for _, s := range settings {
		w, refW, err := calibrated(serve.CalibrateOptions{Setting: s}, s == core.SGXDiE)
		if err != nil {
			return err
		}
		if s == core.SGXDiE {
			b.dieW, b.dieRefW = w, refW
		}
		for _, sc := range serveScenarios() {
			res, err := b.served(sc, w, refW)
			if err != nil {
				return err
			}
			b.printf("  %-18s %-11s qps=%-10.0f p50=%-9d p99=%-9d queueWait=%-11d commitWait=%d\n", sc.name, s,
				res.ThroughputQPS, res.P50, res.P99, res.Breakdown.QueueWaitCycles, res.Breakdown.CommitWaitCycles)
		}
	}
	return b.gate("serve_collapse_ok")
}

// fault replays the fault-injected scenarios under SGX DiE; the
// crash-storm pair anchors the graceful-degradation gate.
func (b *bencher) fault() error {
	b.printf("== fault (fault-injected serving, SGX DiE, %d clients / %d workers) ==\n", faultClients, faultWorkers)
	for _, sc := range faultScenarios(b.dieW) {
		res, err := b.served(sc, b.dieW, b.dieRefW)
		if err != nil {
			return err
		}
		k := res.Breakdown
		b.printf("  %-18s goodput=%-9.0f p99=%-11d ok=%-4d fail=%-3d timeout=%-4d retry=%-4d shed=%-4d crash=%-3d aex=%d\n", sc.name,
			res.GoodputQPS, res.P99, res.Succeeded, res.Failed, k.Timeouts, k.Retries, k.Shed, k.Crashes, k.AEXEvents)
	}
	return b.gate("fault_degradation_ok")
}

// scale replays the open-loop sharded/batched scenarios under SGX DiE
// on their dedicated calibration.
func (b *bencher) scale() error {
	b.printf("== scale (open-loop sharded/batched serving, SGX DiE, %d workers) ==\n", scaleWorkers)
	w, refW, err := calibrated(serve.CalibrateOptions{
		Setting: core.SGXDiE, NDim: 64, NFact: 256, MaxRows: 256, Pipelines: scalePipelines,
	}, true)
	if err != nil {
		return err
	}
	for _, sc := range scaleScenarios(w) {
		res, err := b.served(sc, w, refW)
		if err != nil {
			return err
		}
		b.printf("  %-22s qps=%-10.0f p50=%-9d p99=%-10d steals=%-6d batches=%-6d transitions=%d\n", sc.name,
			res.ThroughputQPS, res.P50, res.P99, res.DispatchStats.Steals, res.DispatchStats.Batches, res.Breakdown.Transitions)
	}
	return b.gate("shard_scaling_ok")
}
