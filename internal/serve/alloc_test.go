package serve_test

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

// allocScenario is one of the four event-loop shapes of the repository
// benchmark's serve_scale rep, rebuilt over the synthetic workload: the
// deeply saturated open loops (global queue, and sharded with
// batching), the closed loop collapsing on the SDK mutex with EDMM
// commits, and the crash-storm with deadlines, retries and admission
// control.
type allocScenario struct {
	name string
	w    *serve.Workload
	cfg  func(rpc int) serve.Config
	rpc  int // requests per client the budget is stated at
	// budget is the committed ceiling on bytes allocated per logical
	// request. The floor is what Simulate must keep per request: an
	// 8-byte latency, plus a 32-byte request slot in the open loop; then
	// 40 B per attempt alive at the peak, in whole slab chunks, and
	// per-run state. The slice-growth event loop before the pre-sized
	// one measured 723, 772, 348 and 949 B on these four; the pre-sized
	// one, which kept every attempt and a ring per queue, 102, 102, 50
	// and 350 B.
	budget float64
}

func allocScenarios() []allocScenario {
	const service = 10_000
	weights := []int{3, 1}
	open := func(d serve.DispatchKind, batch int) func(int) serve.Config {
		return func(rpc int) serve.Config {
			return serve.Config{
				Clients: 2048, Workers: 64, RequestsPerClient: rpc,
				Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
				Weights: weights, JitterPct: 10, Seed: 7, Dispatch: d, Batch: batch,
				// Mean service is 12 500 cycles; a gap of ten of them per
				// client offers 204.8 workers' worth of load to 64.
				Arrival: &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: 125_000},
			}
		}
	}
	const s = 15_000 // unweighted mean service: the fault plan's time unit
	fc := sgx.DefaultFaultCosts()
	fc.Teardown, fc.RebuildBase = s/2, 3*s
	return []allocScenario{
		{"OpenGlobal", synthetic(core.SGXDiE, service, 0), open(serve.DispatchGlobal, 0), 16, 103},
		{"OpenShardBatch", synthetic(core.SGXDiE, service, 0), open(serve.DispatchSharded, 16), 16, 92},
		{"ClosedMutex", synthetic(core.SGXDiE, service, 16), func(rpc int) serve.Config {
			return serve.Config{
				Clients: 32, Workers: 16, RequestsPerClient: rpc,
				Sync: serve.SyncMutex, Mem: serve.MemDynamic,
				Weights: weights, JitterPct: 10, Seed: 7,
			}
		}, 512, 32},
		{"CrashStorm", synthetic(core.SGXDiE, service, 0), func(rpc int) serve.Config {
			return serve.Config{
				Clients: 64, Workers: 8, RequestsPerClient: rpc,
				Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
				Weights: weights, ThinkCycles: 12 * s, JitterPct: 10, Seed: 7,
				DeadlineCycles: 7 * s, MaxRetries: 7, BackoffBase: s, BackoffCap: 16 * s,
				AdmitDepth: 12,
				Fault: &serve.FaultPlan{
					Seed: 11, StormInterval: 20 * s, StormLen: 9 * s, StormAEXGap: fc.AEX / 5,
					CrashInterval: 60 * s, FailPct: 2, RebuildPages: 64, Costs: fc,
				},
			}
		}, 256, 36},
	}
}

// simAllocs replays c three times and returns the fewest heap objects
// and bytes one replay allocated (the replay is deterministic; anything
// above the minimum came from the runtime or the test binary) and the
// logical requests it finished. Both counters are cumulative, so a
// collection in between changes neither.
func simAllocs(t *testing.T, w *serve.Workload, c serve.Config) (mallocs, bytes uint64, requests int) {
	t.Helper()
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := mustSim(t, w, c)
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		requests = res.Requests
	}
	return mallocs, bytes, requests
}

// TestSimulateAllocBudget is the host-independent gate on the event
// loop's allocation behaviour: bytes per request stay under a committed
// budget, and the number of allocations follows how many requests a
// client issues only through whole attempt slab chunks.
func TestSimulateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, sc := range allocScenarios() {
		mallocs, bytes, requests := simAllocs(t, sc.w, sc.cfg(sc.rpc))
		perReq := float64(bytes) / float64(requests)
		t.Logf("%s: %d requests, %d allocations, %.1f B/request (budget %.0f)", sc.name, requests, mallocs, perReq, sc.budget)
		if perReq > sc.budget {
			t.Errorf("%s: %.1f B/request, budget %.0f", sc.name, perReq, sc.budget)
		}
		// The only allocations that may follow the request count are
		// attempt slab chunks: at most one per AttemptChunk requests
		// when the overloaded open loops keep every request in flight,
		// and two for anything else that grows.
		big := sc.cfg(4 * sc.rpc)
		slack := uint64(big.Clients*big.RequestsPerClient/serve.AttemptChunk + 2)
		if mallocs4, _, _ := simAllocs(t, sc.w, big); mallocs4 > mallocs+slack {
			t.Errorf("%s: %d allocations at %d requests/client but %d at %d: the count follows the request count",
				sc.name, mallocs, sc.rpc, mallocs4, 4*sc.rpc)
		}
	}
}

// TestTracedReplayAllocs: spans hold their attributes inline, so an
// attached tracer costs its ring and a constant, not allocations per
// recorded span; and the ring grows by doubling, so filling it
// allocates at most twice its bytes.
func TestTracedReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, sc := range allocScenarios() {
		if sc.name != "OpenShardBatch" {
			continue
		}
		c := sc.cfg(sc.rpc)
		bare, bareBytes, requests := simAllocs(t, sc.w, c)
		// Each traced replay gets a fresh tracer, so its ring's growth
		// is counted too.
		traced, tracedBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		const ring = 1 << 12
		for i := 0; i < 3; i++ {
			c.Trace = obs.NewTracer(ring)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mustSim(t, sc.w, c)
			runtime.ReadMemStats(&after)
			traced = min(traced, after.Mallocs-before.Mallocs)
			tracedBytes = min(tracedBytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d requests, %d allocations (%d B) bare, %d (%d B) traced", sc.name, requests, bare, bareBytes, traced, tracedBytes)
		if traced > bare+32 {
			t.Errorf("%s: a tracer adds %d allocations to a %d-request replay", sc.name, traced-bare, requests)
		}
		ringBytes := uint64(ring * unsafe.Sizeof(obs.Span{}))
		if limit := bareBytes + 2*ringBytes + 64<<10; tracedBytes > limit {
			t.Errorf("%s: a traced replay allocates %d B, limit %d (bare %d B + twice the %d B ring + 64 KiB)",
				sc.name, tracedBytes, limit, bareBytes, ringBytes)
		}
	}
}

var benchSink *serve.Result

func benchmarkSimulate(b *testing.B, name string) {
	for _, sc := range allocScenarios() {
		if sc.name != name {
			continue
		}
		c := sc.cfg(sc.rpc)
		b.ReportAllocs()
		for b.Loop() {
			res, err := sc.w.Simulate(c)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = res
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchSink.Requests), "ns/request")
	}
}

func BenchmarkSimulateOpenGlobal(b *testing.B)     { benchmarkSimulate(b, "OpenGlobal") }
func BenchmarkSimulateOpenShardBatch(b *testing.B) { benchmarkSimulate(b, "OpenShardBatch") }
func BenchmarkSimulateClosedMutex(b *testing.B)    { benchmarkSimulate(b, "ClosedMutex") }
func BenchmarkSimulateCrashStorm(b *testing.B)     { benchmarkSimulate(b, "CrashStorm") }
