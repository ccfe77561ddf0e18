package serve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
	"sgxbench/internal/serve"
)

// obsScenarios is the scenario matrix the zero-perturbation and
// percentile tests sweep: the legacy closed loop, the production-scale
// sharded/batched open loop, admission shedding, and the full fault
// schedule with deadlines and retries.
func obsScenarios() map[string]serve.Config {
	shed := cfg(serve.SyncMutex, serve.MemPreSized)
	shed.AdmitDepth = 2
	shed.MaxRetries = 4
	shed.BackoffBase = 20_000

	open := cfg(serve.SyncLockFree, serve.MemDynamic)
	open.Dispatch = serve.DispatchSharded
	open.Batch = 4
	open.Arrival = &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: 400_000}

	return map[string]serve.Config{
		"closed":  cfg(serve.SyncMutex, serve.MemDynamic),
		"shed":    shed,
		"sharded": open,
		"fault":   faultCfg(faultPlan()),
	}
}

// observed re-runs c with a tracer and metrics attached.
func observed(c serve.Config) serve.Config {
	c.Trace = obs.NewTracer(1 << 14)
	c.Metrics = obs.NewMetrics(1<<15, 1<<10)
	return c
}

// TestObservabilityZeroPerturbation is the serving half of the
// tentpole invariant: attaching a tracer and a metrics timeline must
// leave every simulated number bit-identical — check value, makespan,
// breakdown, dispatch stats, percentiles, outcome split — under every
// execution setting and scenario shape.
func TestObservabilityZeroPerturbation(t *testing.T) {
	settings := []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
	for name, c := range obsScenarios() {
		for _, setting := range settings {
			w := synthetic(setting, 50_000, 16)
			bare := mustSim(t, w, c)
			traced := mustSim(t, w, observed(c))
			label := name + "/" + setting.String()
			if bare.Check != traced.Check {
				t.Errorf("%s: check off=%#x on=%#x", label, bare.Check, traced.Check)
			}
			if bare.MakespanCycles != traced.MakespanCycles {
				t.Errorf("%s: makespan off=%d on=%d", label, bare.MakespanCycles, traced.MakespanCycles)
			}
			if bare.Breakdown != traced.Breakdown {
				t.Errorf("%s: breakdown differs with observability attached", label)
			}
			if bare.DispatchStats != traced.DispatchStats {
				t.Errorf("%s: dispatch stats differ with observability attached", label)
			}
			if bare.P50 != traced.P50 || bare.P95 != traced.P95 || bare.P99 != traced.P99 || bare.Max != traced.Max {
				t.Errorf("%s: percentiles differ with observability attached", label)
			}
			if bare.Succeeded != traced.Succeeded || bare.Failed != traced.Failed {
				t.Errorf("%s: outcome split differs with observability attached", label)
			}
			if bare.FaultsDropped != traced.FaultsDropped {
				t.Errorf("%s: FaultsDropped differs with observability attached", label)
			}
		}
	}
}

// TestHistogramPercentilesMatchExact pins the satellite guarantee on
// real serving runs: each histogram-backed percentile is >= the exact
// sorted-slice value and within one bucket width of it, and Max is
// exact.
func TestHistogramPercentilesMatchExact(t *testing.T) {
	for name, c := range obsScenarios() {
		for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
			r := mustSim(t, synthetic(setting, 50_000, 16), c)
			e50, e95, e99, emax := r.ExactPercentiles()
			label := name + "/" + setting.String()
			for _, pc := range []struct {
				name       string
				got, exact uint64
			}{{"p50", r.P50, e50}, {"p95", r.P95, e95}, {"p99", r.P99, e99}} {
				if pc.got < pc.exact {
					t.Errorf("%s: %s = %d below exact %d", label, pc.name, pc.got, pc.exact)
				}
				if w := obs.BucketWidth(pc.exact); pc.got-pc.exact > w {
					t.Errorf("%s: %s = %d off exact %d by more than bucket width %d",
						label, pc.name, pc.got, pc.exact, w)
				}
			}
			if r.Max != emax {
				t.Errorf("%s: Max = %d, want exact %d", label, r.Max, emax)
			}
			if n := r.LatencyCount(); n != r.Requests {
				t.Errorf("%s: %d latencies recorded for %d requests", label, n, r.Requests)
			}
		}
	}
}

// TestTraceContent checks what the tracer captures on a fault scenario:
// whole-request spans for every terminal request, queue+service spans on
// the serve tracks, fault markers, and a Perfetto-loadable export.
func TestTraceContent(t *testing.T) {
	c := observed(faultCfg(faultPlan()))
	r := mustSim(t, synthetic(core.SGXDiE, 50_000, 16), c)

	var requests, services, queues, crashes, timeouts int
	for _, s := range c.Trace.Spans() {
		switch s.Name {
		case "request":
			requests++
			if s.PID != 1 {
				t.Errorf("request span on pid %d, want client pid 1", s.PID)
			}
		case "queue":
			queues++
			if s.PID != 0 {
				t.Errorf("queue span on pid %d, want serve pid 0", s.PID)
			}
		case "a", "b":
			services++
		case "crash":
			crashes++
			if s.Ph != obs.PhInstant {
				t.Error("crash marker is not an instant")
			}
		case "timeout":
			timeouts++
		}
	}
	if c.Trace.Dropped() == 0 && requests != r.Requests {
		t.Errorf("request spans = %d, terminal requests = %d", requests, r.Requests)
	}
	if services == 0 || queues == 0 {
		t.Errorf("missing serve-side spans: %d service, %d queue", services, queues)
	}
	if uint64(crashes) != r.Breakdown.Crashes && c.Trace.Dropped() == 0 {
		t.Errorf("crash markers = %d, breakdown crashes = %d", crashes, r.Breakdown.Crashes)
	}
	if timeouts == 0 && r.Breakdown.Timeouts > 0 {
		t.Error("breakdown reports timeouts but no timeout markers were traced")
	}

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, c.Trace, c.Metrics); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("trace export is empty")
	}
}

// TestMetricsTimeline checks the sampled gauge timeline: strictly
// advancing boundary-aligned timestamps inside the makespan, and
// per-shard depths only for sharded dispatch.
func TestMetricsTimeline(t *testing.T) {
	c := cfg(serve.SyncLockFree, serve.MemDynamic)
	c.Dispatch = serve.DispatchSharded
	c.ThinkCycles = 100_000
	c = observed(c)
	r := mustSim(t, synthetic(core.SGXDiE, 50_000, 16), c)

	samples := c.Metrics.Samples()
	if len(samples) == 0 {
		t.Fatal("no metrics samples over a multi-interval makespan")
	}
	iv := c.Metrics.Interval()
	var prev uint64
	for i, s := range samples {
		if s.T%iv != 0 || (i > 0 && s.T <= prev) {
			t.Fatalf("sample %d at T=%d: not boundary-aligned/monotone (interval %d)", i, s.T, iv)
		}
		prev = s.T
		if len(s.Shards) != c.Workers {
			t.Fatalf("sample %d has %d shard depths, want %d", i, len(s.Shards), c.Workers)
		}
		var sum, max uint64
		for _, d := range s.Shards {
			sum += d
			if d > max {
				max = d
			}
		}
		if s.G.QueueDepth != sum || s.G.MaxShardDepth != max {
			t.Fatalf("sample %d gauge/shard mismatch: %+v vs shards %v", i, s.G, s.Shards)
		}
		if s.G.BusyWorkers > uint64(c.Workers) {
			t.Fatalf("sample %d: %d busy workers of %d", i, s.G.BusyWorkers, c.Workers)
		}
	}
	if last := samples[len(samples)-1].T; last > r.MakespanCycles+iv {
		t.Errorf("last sample at %d, past makespan %d", last, r.MakespanCycles)
	}
}

// TestFaultsDropped drives a crash loop long enough to overflow the
// fault-event cap: the timeline must hold exactly the cap, the dropped
// counter must say how much history was cut, and the truncation must
// not touch the deterministic check.
func TestFaultsDropped(t *testing.T) {
	plan := faultPlan()
	plan.CrashInterval = 150_000
	plan.StormInterval = 0
	plan.StormLen = 0
	plan.FailPct = 0
	c := faultCfg(plan)
	c.RequestsPerClient = 48
	w := synthetic(core.SGXDiE, 50_000, 16)

	r := mustSim(t, w, c)
	if len(r.Faults) != 512 {
		t.Fatalf("fault timeline holds %d events, want the 512 cap (tune the scenario)", len(r.Faults))
	}
	if r.FaultsDropped == 0 {
		t.Fatal("timeline at cap but FaultsDropped = 0")
	}
	// Every crash records a crash event and (later) a rebuilt event;
	// the replay ends when the last request does, so up to Workers
	// rebuilds can still be pending and unrecorded.
	total := uint64(len(r.Faults)) + r.FaultsDropped
	lo, hi := r.Breakdown.Crashes*2-uint64(c.Workers), r.Breakdown.Crashes*2
	if total < lo || total > hi {
		t.Errorf("kept %d + dropped %d fault events, want within [%d, %d] for %d crashes",
			len(r.Faults), r.FaultsDropped, lo, hi, r.Breakdown.Crashes)
	}
	again := mustSim(t, w, c)
	if again.Check != r.Check || again.FaultsDropped != r.FaultsDropped {
		t.Error("fault-overflow scenario is not deterministic")
	}
}
