package serve_test

import (
	"math"
	"strings"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

// faultPlan returns the full crash-storm plan used by the behavioral
// tests: storms, crashes and transient aborts together, scaled to the
// synthetic workload's 50k-cycle service time.
func faultPlan() *serve.FaultPlan {
	fc := sgx.DefaultFaultCosts()
	fc.Teardown = 25_000
	fc.RebuildBase = 150_000
	return &serve.FaultPlan{
		Seed:          11,
		CrashInterval: 3_000_000,
		RebuildPages:  64,
		StormInterval: 1_000_000,
		StormLen:      450_000,
		StormAEXGap:   fc.AEX / 5,
		FailPct:       2,
		Costs:         fc,
	}
}

// faultCfg is the saturating scenario the behavioral tests perturb:
// deadlines, retries and backoff on, admission off unless set.
func faultCfg(plan *serve.FaultPlan) serve.Config {
	return serve.Config{
		Clients: 32, Workers: 4, RequestsPerClient: 8,
		Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
		ThinkCycles: 600_000, JitterPct: 10, Seed: 7,
		DeadlineCycles: 350_000,
		MaxRetries:     7,
		BackoffBase:    50_000,
		BackoffCap:     800_000,
		Fault:          plan,
	}
}

// TestConfigValidate: every malformed configuration must be rejected
// with an error instead of panicking or skewing a golden number.
func TestConfigValidate(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 0)
	ok := cfg(serve.SyncLockFree, serve.MemPreSized)
	cases := []struct {
		name string
		mut  func(c *serve.Config)
		want string
	}{
		{"weights length", func(c *serve.Config) { c.Weights = []int{1} }, "weights"},
		{"negative weight", func(c *serve.Config) { c.Weights = []int{1, -1} }, "negative weight"},
		{"zero-sum weights", func(c *serve.Config) { c.Weights = []int{0, 0} }, "sum to zero"},
		{"weight sum overflows", func(c *serve.Config) { c.Weights = []int{math.MaxInt, math.MaxInt} }, "overflow"},
		{"unknown sync kind", func(c *serve.Config) { c.Sync = serve.SyncKind(9) }, "SyncKind"},
		{"unknown mem mode", func(c *serve.Config) { c.Mem = serve.MemMode(-1) }, "MemMode"},
		{"negative clients", func(c *serve.Config) { c.Clients = -1 }, "negative counts"},
		{"negative workers", func(c *serve.Config) { c.Workers = -2 }, "negative counts"},
		{"negative requests", func(c *serve.Config) { c.RequestsPerClient = -3 }, "negative counts"},
		{"zero workers, live clients", func(c *serve.Config) { c.Workers = 0 }, "zero workers"},
		{"jitter 100", func(c *serve.Config) { c.JitterPct = 100 }, "JitterPct"},
		{"negative jitter", func(c *serve.Config) { c.JitterPct = -1 }, "JitterPct"},
		{"negative retries", func(c *serve.Config) { c.MaxRetries = -1 }, "MaxRetries"},
		{"retries past the attempt counter", func(c *serve.Config) { c.MaxRetries = math.MaxInt32 }, "MaxRetries"},
		{"request total overflows int", func(c *serve.Config) { c.Clients, c.RequestsPerClient = math.MaxInt, 2 }, "can index"},
		{"request total past 32-bit indices", func(c *serve.Config) { c.Clients, c.RequestsPerClient = 1<<16, 1<<15 }, "can index"},
		{"clients past 32-bit indices, defaulted requests", func(c *serve.Config) { c.Clients, c.RequestsPerClient = 1<<31, 0 }, "can index"},
		{"workers past 32-bit indices", func(c *serve.Config) { c.Workers = 1 << 31 }, "can index"},
		{"negative admit depth", func(c *serve.Config) { c.AdmitDepth = -1 }, "AdmitDepth"},
		{"backoff base above cap", func(c *serve.Config) { c.BackoffBase = 10; c.BackoffCap = 5 }, "BackoffBase"},
		{"no-op fault plan", func(c *serve.Config) { c.Fault = &serve.FaultPlan{} }, "injects nothing"},
		{"storm without length", func(c *serve.Config) {
			c.Fault = &serve.FaultPlan{StormInterval: 100, StormAEXGap: 10}
		}, "storm length"},
		{"storm longer than interval", func(c *serve.Config) {
			c.Fault = &serve.FaultPlan{StormInterval: 100, StormLen: 101, StormAEXGap: 10}
		}, "storm length"},
		{"storm without gap", func(c *serve.Config) {
			c.Fault = &serve.FaultPlan{StormInterval: 100, StormLen: 50}
		}, "StormAEXGap"},
		{"storm gap plus AEX overflows", func(c *serve.Config) {
			c.Fault = &serve.FaultPlan{StormInterval: 100, StormLen: 50, StormAEXGap: math.MaxUint64}
		}, "overflows"},
		{"fail pct above 100", func(c *serve.Config) { c.Fault = &serve.FaultPlan{FailPct: 101} }, "FailPct"},
		{"negative rebuild pages", func(c *serve.Config) {
			c.Fault = &serve.FaultPlan{CrashInterval: 100, RebuildPages: -1}
		}, "RebuildPages"},
		{"unknown dispatch kind", func(c *serve.Config) { c.Dispatch = serve.DispatchKind(9) }, "DispatchKind"},
		{"negative batch", func(c *serve.Config) { c.Batch = -4 }, "Batch"},
		{"arrival without gap", func(c *serve.Config) {
			c.Arrival = &serve.ArrivalPlan{Kind: serve.ArrivalPoisson}
		}, "MeanGapCycles"},
		{"bursty without burst size", func(c *serve.Config) {
			c.Arrival = &serve.ArrivalPlan{Kind: serve.ArrivalBursty, MeanGapCycles: 1000}
		}, "BurstSize"},
		{"diurnal ramp too short", func(c *serve.Config) {
			c.Arrival = &serve.ArrivalPlan{Kind: serve.ArrivalDiurnal, MeanGapCycles: 1000, RampPeriodCycles: 15}
		}, "RampPeriodCycles"},
		{"unknown arrival kind", func(c *serve.Config) {
			c.Arrival = &serve.ArrivalPlan{Kind: serve.ArrivalKind(7), MeanGapCycles: 1000}
		}, "ArrivalKind"},
		{"open loop with think time", func(c *serve.Config) {
			c.ThinkCycles = 100
			c.Arrival = &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: 1000}
		}, "closed-loop knob"},
	}
	for _, tc := range cases {
		c := ok
		tc.mut(&c)
		if err := c.Validate(len(w.Classes)); err == nil {
			t.Errorf("%s: Validate accepted a malformed config", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, err := w.Simulate(c); err == nil {
			t.Errorf("%s: Simulate ran a malformed config", tc.name)
		}
	}
	if err := ok.Validate(0); err == nil {
		t.Error("Validate accepted a workload with no classes")
	}
	if err := ok.Validate(len(w.Classes)); err != nil {
		t.Errorf("Validate rejected the baseline config: %v", err)
	}
	atLimit := ok
	atLimit.Clients, atLimit.RequestsPerClient = math.MaxInt32, 1
	if err := atLimit.Validate(len(w.Classes)); err != nil {
		t.Errorf("Validate rejected the largest indexable request total: %v", err)
	}
}

// TestRetryTermination: retries must always terminate — even when every
// single attempt fails, every logical request reaches a terminal state
// after exactly MaxRetries re-issues (no retry-storm livelock).
func TestRetryTermination(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 0)
	c := cfg(serve.SyncLockFree, serve.MemPreSized)
	c.MaxRetries = 8
	c.BackoffBase = 10_000
	c.BackoffCap = 80_000
	c.Fault = &serve.FaultPlan{Seed: 3, FailPct: 100}
	r := mustSim(t, w, c)
	want := c.Clients * c.RequestsPerClient
	if r.Requests != want {
		t.Fatalf("requests = %d, want %d", r.Requests, want)
	}
	if r.Succeeded != 0 || r.Failed != want {
		t.Fatalf("outcome = %d ok / %d failed, want 0 / %d", r.Succeeded, r.Failed, want)
	}
	if got, wantR := r.Breakdown.Retries, uint64(want*c.MaxRetries); got != wantR {
		t.Fatalf("retries = %d, want exactly %d (MaxRetries per request)", got, wantR)
	}
	if r.GoodputQPS != 0 {
		t.Fatalf("goodput = %f with zero successes", r.GoodputQPS)
	}
}

// TestFaultDeterminism: a fully faulted scenario must replay
// bit-identically — fault injection adds no hidden nondeterminism.
func TestFaultDeterminism(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 16)
	c := faultCfg(faultPlan())
	a := mustSim(t, w, c)
	for rep := 0; rep < 3; rep++ {
		b := mustSim(t, w, c)
		if a.Check != b.Check || a.MakespanCycles != b.MakespanCycles ||
			a.Breakdown != b.Breakdown || a.Succeeded != b.Succeeded ||
			a.P99 != b.P99 || len(a.Faults) != len(b.Faults) {
			t.Fatalf("faulted replay diverged: %+v vs %+v", a, b)
		}
	}
	if a.Breakdown.Crashes == 0 || a.Breakdown.AEXEvents == 0 {
		t.Fatalf("fault plan injected nothing: %+v", a.Breakdown)
	}
}

// TestFaultEnginePathEquivalence: the same faulted scenario over fast-
// and reference-calibrated workloads must agree bit for bit — the
// fault path preserves the engine's cross-path invariant.
func TestFaultEnginePathEquivalence(t *testing.T) {
	small := serve.CalibrateOptions{Setting: core.SGXDiE, NDim: 64, NFact: 1 << 9}
	fast, err := serve.Calibrate(small)
	if err != nil {
		t.Fatal(err)
	}
	small.Reference = true
	ref, err := serve.Calibrate(small)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, cc := range fast.Classes {
		sum += cc.ServiceCycles
	}
	s := sum / uint64(len(fast.Classes))
	fc := sgx.DefaultFaultCosts()
	fc.Teardown = s / 2
	fc.RebuildBase = 3 * s
	c := serve.Config{
		Clients: 24, Workers: 4, RequestsPerClient: 4,
		Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
		ThinkCycles: 4 * s, JitterPct: 10, Seed: 7,
		DeadlineCycles: 7 * s, MaxRetries: 5,
		BackoffBase: s, BackoffCap: 8 * s, AdmitDepth: 8,
		Fault: &serve.FaultPlan{
			Seed: 11, CrashInterval: 40 * s, RebuildPages: 64,
			StormInterval: 12 * s, StormLen: 5 * s, StormAEXGap: fc.AEX / 5,
			FailPct: 5, Costs: fc,
		},
	}
	fr, rr := mustSim(t, fast, c), mustSim(t, ref, c)
	if fr.Check != rr.Check || fr.MakespanCycles != rr.MakespanCycles ||
		fr.Breakdown != rr.Breakdown || fr.Succeeded != rr.Succeeded {
		t.Fatalf("faulted scenario diverged across engine paths (check %#x vs %#x)", fr.Check, rr.Check)
	}
}

// TestFaultBehavior: each injected fault mode must surface in its own
// Breakdown counters, and mitigations must engage.
func TestFaultBehavior(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 16)
	clean := mustSim(t, w, faultCfg(nil))

	stormOnly := faultPlan()
	stormOnly.CrashInterval = 0
	stormOnly.FailPct = 0
	storm := mustSim(t, w, faultCfg(stormOnly))
	if storm.Breakdown.AEXEvents == 0 || storm.Breakdown.AEXCycles == 0 {
		t.Fatalf("storms injected no AEX: %+v", storm.Breakdown)
	}
	if storm.MakespanCycles <= clean.MakespanCycles {
		t.Fatalf("storms did not stretch the makespan: %d <= %d", storm.MakespanCycles, clean.MakespanCycles)
	}
	if storm.Breakdown.Crashes != 0 || storm.Breakdown.RebuildCycles != 0 {
		t.Fatalf("storm-only plan crashed enclaves: %+v", storm.Breakdown)
	}

	full := mustSim(t, w, faultCfg(faultPlan()))
	if full.Breakdown.Crashes == 0 || full.Breakdown.RebuildCycles == 0 {
		t.Fatalf("crash plan produced no crashes: %+v", full.Breakdown)
	}
	if full.Breakdown.Timeouts == 0 {
		t.Fatalf("deadlines produced no timeouts under faults: %+v", full.Breakdown)
	}
	if len(full.Faults) == 0 {
		t.Fatal("crash plan recorded no fault events")
	}
	sawCrash := false
	for _, ev := range full.Faults {
		switch ev.Kind {
		case "crash":
			sawCrash = true
		case "rebuilt":
		default:
			t.Fatalf("unknown fault event kind %q", ev.Kind)
		}
		if ev.Worker < 0 || ev.Worker >= 4 {
			t.Fatalf("fault event names worker %d of 4", ev.Worker)
		}
	}
	if !sawCrash {
		t.Fatal("fault timeline has no crash events")
	}

	admitCfg := faultCfg(faultPlan())
	admitCfg.AdmitDepth = 8
	admitted := mustSim(t, w, admitCfg)
	if admitted.Breakdown.Shed == 0 {
		t.Fatalf("admission control never shed under a crash-storm: %+v", admitted.Breakdown)
	}
	if admitted.GoodputQPS < full.GoodputQPS {
		t.Fatalf("admission control degraded goodput under faults: %.0f < %.0f",
			admitted.GoodputQPS, full.GoodputQPS)
	}
}

// TestStormWindows pins the timeline helper diag prints: windows open at
// every positive multiple of the interval, before the horizon.
func TestStormWindows(t *testing.T) {
	p := &serve.FaultPlan{StormInterval: 100, StormLen: 30, StormAEXGap: 10}
	got := p.StormWindows(250)
	want := [][2]uint64{{100, 130}, {200, 230}}
	if len(got) != len(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windows = %v, want %v", got, want)
		}
	}
	var nilPlan *serve.FaultPlan
	if ws := nilPlan.StormWindows(1000); len(ws) != 0 {
		t.Fatalf("nil plan has windows: %v", ws)
	}
}
