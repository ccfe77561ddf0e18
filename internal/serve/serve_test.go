package serve_test

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

// synthetic returns a hand-built workload (no calibration) so the pure
// simulation properties can be tested in microseconds.
func synthetic(setting core.Setting, service uint64, pages int64) *serve.Workload {
	return &serve.Workload{
		Setting:   setting,
		Plat:      platform.XeonGold6326(),
		OS:        sgx.DefaultOSCosts(),
		InEnclave: setting.InEnclave(),
		Classes: []serve.ClassCost{
			{Name: "a", ServiceCycles: service, Pages: pages},
			{Name: "b", ServiceCycles: service * 2, Pages: pages},
		},
	}
}

func cfg(sync serve.SyncKind, mem serve.MemMode) serve.Config {
	return serve.Config{
		Clients: 16, Workers: 8, RequestsPerClient: 8,
		Sync: sync, Mem: mem, JitterPct: 10, Seed: 7,
	}
}

// mustSim replays a scenario that is expected to validate.
func mustSim(t *testing.T, w *serve.Workload, c serve.Config) *serve.Result {
	t.Helper()
	r, err := w.Simulate(c)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return r
}

// TestSimulateDeterministic: repeated replays of the same scenario must
// be bit-identical, including the check value.
func TestSimulateDeterministic(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 16)
	for _, sync := range []serve.SyncKind{serve.SyncMutex, serve.SyncSpin, serve.SyncLockFree} {
		for _, mem := range []serve.MemMode{serve.MemPreSized, serve.MemDynamic} {
			c := cfg(sync, mem)
			a := mustSim(t, w, c)
			for rep := 0; rep < 3; rep++ {
				b := mustSim(t, w, c)
				if a.Check != b.Check || a.MakespanCycles != b.MakespanCycles ||
					a.Breakdown != b.Breakdown || a.P99 != b.P99 {
					t.Fatalf("%s/%s: replay diverged: %+v vs %+v", sync, mem, a, b)
				}
			}
		}
	}
}

// TestSimulateAccounting pins the structural invariants of one replay.
func TestSimulateAccounting(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 16)
	c := cfg(serve.SyncMutex, serve.MemDynamic)
	r := mustSim(t, w, c)
	want := c.Clients * c.RequestsPerClient
	if r.Requests != want || r.Breakdown.Requests != uint64(want) {
		t.Fatalf("requests = %d / %d, want %d", r.Requests, r.Breakdown.Requests, want)
	}
	if !(r.P50 <= r.P95 && r.P95 <= r.P99 && r.P99 <= r.Max) {
		t.Fatalf("percentiles not ordered: p50=%d p95=%d p99=%d max=%d", r.P50, r.P95, r.P99, r.Max)
	}
	if r.MakespanCycles < r.Max {
		t.Fatalf("makespan %d < max latency %d", r.MakespanCycles, r.Max)
	}
	// Every request transitions 4 times: submit ECALL/EEXIT + worker
	// ECALL/EEXIT.
	if got := r.Breakdown.Transitions; got != uint64(4*want) {
		t.Fatalf("transitions = %d, want %d", got, 4*want)
	}
	perClient := 0
	for _, cs := range r.PerClient {
		perClient += cs.Requests
	}
	perClass := 0
	for _, cs := range r.PerClass {
		perClass += cs.Requests
	}
	if perClient != want || perClass != want {
		t.Fatalf("per-client %d / per-class %d, want %d", perClient, perClass, want)
	}
	if r.Breakdown.PagesCommitted == 0 || r.Breakdown.CommitCycles == 0 {
		t.Fatalf("dynamic memory mode committed nothing: %+v", r.Breakdown)
	}
	if r.ThroughputQPS <= 0 {
		t.Fatalf("throughput = %v", r.ThroughputQPS)
	}
}

// TestPlainNoTransitions: outside an enclave nothing transitions and
// dynamic memory never serializes.
func TestPlainNoTransitions(t *testing.T) {
	w := synthetic(core.PlainCPU, 50_000, 16)
	r := mustSim(t, w, cfg(serve.SyncMutex, serve.MemDynamic))
	if r.Breakdown.Transitions != 0 || r.Breakdown.TransitionCycles != 0 {
		t.Fatalf("plain CPU transitioned: %+v", r.Breakdown)
	}
	if r.Breakdown.CommitWaitCycles != 0 {
		t.Fatalf("plain CPU serialized page commits: %+v", r.Breakdown)
	}
	if r.Breakdown.CommitCycles == 0 {
		t.Fatalf("plain CPU dynamic mode charged no minor faults")
	}
}

// TestSyncCollapse reproduces the Section 4.4 contention collapse: with
// >= 8 clients hammering the dispatch queue, the SGX SDK mutex (whose
// sleep and wake are enclave transitions with the mutex held) must lose
// substantial throughput against the lock-free queue, and the spinlock
// must sit in between.
func TestSyncCollapse(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 0)
	mutex := mustSim(t, w, cfg(serve.SyncMutex, serve.MemPreSized))
	spin := mustSim(t, w, cfg(serve.SyncSpin, serve.MemPreSized))
	free := mustSim(t, w, cfg(serve.SyncLockFree, serve.MemPreSized))
	if ratio := free.ThroughputQPS / mutex.ThroughputQPS; ratio < 2 {
		t.Errorf("lock-free/mutex throughput = %.2fx, want >= 2x (mutex %v qps, lock-free %v qps)",
			ratio, mutex.ThroughputQPS, free.ThroughputQPS)
	}
	if spin.ThroughputQPS < mutex.ThroughputQPS {
		t.Errorf("spinlock (%v qps) slower than SDK mutex (%v qps) under contention",
			spin.ThroughputQPS, mutex.ThroughputQPS)
	}
	if mutex.Breakdown.LockCycles <= free.Breakdown.LockCycles {
		t.Errorf("mutex lock cycles %d not above lock-free %d",
			mutex.Breakdown.LockCycles, free.Breakdown.LockCycles)
	}
	// Outside the enclave SyncMutex resolves to a plain futex mutex,
	// which must not collapse anywhere near as hard.
	pw := synthetic(core.PlainCPU, 50_000, 0)
	pm := mustSim(t, pw, cfg(serve.SyncMutex, serve.MemPreSized))
	pf := mustSim(t, pw, cfg(serve.SyncLockFree, serve.MemPreSized))
	sgxRatio := free.ThroughputQPS / mutex.ThroughputQPS
	plainRatio := pf.ThroughputQPS / pm.ThroughputQPS
	if plainRatio >= sgxRatio {
		t.Errorf("plain mutex collapse (%.2fx) >= SGX mutex collapse (%.2fx)", plainRatio, sgxRatio)
	}
}

// TestEDMMCollapse reproduces the Fig 12 collapse: a dynamically sized
// enclave serializes every request's page commits on the enclave-global
// lock and loses most of its throughput against a pre-sized enclave.
func TestEDMMCollapse(t *testing.T) {
	w := synthetic(core.SGXDiE, 50_000, 32)
	pre := mustSim(t, w, cfg(serve.SyncLockFree, serve.MemPreSized))
	dyn := mustSim(t, w, cfg(serve.SyncLockFree, serve.MemDynamic))
	if ratio := pre.ThroughputQPS / dyn.ThroughputQPS; ratio < 5 {
		t.Errorf("pre-sized/EDMM throughput = %.2fx, want >= 5x", ratio)
	}
	if dyn.Breakdown.CommitWaitCycles == 0 {
		t.Errorf("EDMM scenario never waited on the commit lock: %+v", dyn.Breakdown)
	}
	// The same pages outside an enclave (minor faults, unserialized)
	// must hurt far less.
	pw := synthetic(core.PlainCPU, 50_000, 32)
	ppre := mustSim(t, pw, cfg(serve.SyncLockFree, serve.MemPreSized))
	pdyn := mustSim(t, pw, cfg(serve.SyncLockFree, serve.MemDynamic))
	enclaveRatio := pre.ThroughputQPS / dyn.ThroughputQPS
	plainRatio := ppre.ThroughputQPS / pdyn.ThroughputQPS
	if plainRatio >= enclaveRatio {
		t.Errorf("plain dynamic collapse (%.2fx) >= EDMM collapse (%.2fx)", plainRatio, enclaveRatio)
	}
}

// TestCalibrateEquivalence: the calibrated workload — and therefore
// every scenario simulated over it — must be bit-identical between the
// fast and per-op reference engine paths.
func TestCalibrateEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs full pipelines")
	}
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		opt := serve.CalibrateOptions{Setting: setting}
		fast, err := serve.Calibrate(opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Reference = true
		ref, err := serve.Calibrate(opt)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Stats != ref.Stats {
			t.Errorf("%v: calibration stats differ:\nfast: %+v\nref:  %+v", setting, fast.Stats, ref.Stats)
		}
		for i := range fast.Classes {
			if fast.Classes[i] != ref.Classes[i] {
				t.Errorf("%v: class %d differs:\nfast: %+v\nref:  %+v",
					setting, i, fast.Classes[i], ref.Classes[i])
			}
		}
		c := cfg(serve.SyncMutex, serve.MemDynamic)
		fr := mustSim(t, fast, c)
		rr := mustSim(t, ref, c)
		if fr.Check != rr.Check || fr.MakespanCycles != rr.MakespanCycles || fr.Breakdown != rr.Breakdown {
			t.Errorf("%v: simulated scenario differs across engine paths:\nfast: %+v\nref:  %+v",
				setting, fr, rr)
		}
	}
}

// TestCalibrateSuiteClasses covers the planner-suite side of the query
// registry: serving classes named after suite queries must calibrate
// (the planner picks each class's strategies for the calibration
// setting) and replay deterministically, so a serving mix can blend the
// fixed shapes with planned star queries.
func TestCalibrateSuiteClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs full pipelines")
	}
	pipes := []string{plan.Q2Name, "s03.j0.sel902.u.agg", "s09.j1.sel250.u.agg", "s14.j1.sel250.u.top"}
	w, err := serve.Calibrate(serve.CalibrateOptions{Setting: core.SGXDiE, Pipelines: pipes})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Classes) != len(pipes) {
		t.Fatalf("calibrated %d classes, want %d", len(w.Classes), len(pipes))
	}
	for i, c := range w.Classes {
		if c.Name != pipes[i] || c.ServiceCycles == 0 {
			t.Errorf("class %d = %+v, want name %q with nonzero service", i, c, pipes[i])
		}
	}
	c := cfg(serve.SyncLockFree, serve.MemPreSized)
	a, b := mustSim(t, w, c), mustSim(t, w, c)
	if a.Check != b.Check || a.MakespanCycles != b.MakespanCycles {
		t.Fatalf("suite-class scenario replay diverged: %+v vs %+v", a, b)
	}
	if _, err := serve.Calibrate(serve.CalibrateOptions{
		Setting: core.SGXDiE, Pipelines: []string{"s99.nope"},
	}); err == nil {
		t.Fatal("unknown suite class calibrated without error")
	}
}
