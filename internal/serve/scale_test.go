package serve_test

import (
	"reflect"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/serve"
)

// openCfg returns an open-loop scenario over the synthetic workload:
// many clients submitting on Poisson clocks into a 16-worker DiE pool.
// At 256 clients the offered load saturates even the batched pool, so
// measured throughput reflects each dispatch mode's capacity — for the
// unbatched global queue that capacity is dominated by the two
// worker transitions per attempt (2 x 8000 cycles against 10k service),
// which is exactly what batching amortizes.
func openCfg(clients int) serve.Config {
	return serve.Config{
		Clients: clients, Workers: 16, RequestsPerClient: 8,
		Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
		JitterPct: 10, Seed: 7,
		Arrival: &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: 100_000},
	}
}

// TestShardedWorkConservation: sharded dispatch must finish every
// request, actually steal under imbalance, and stay deterministic.
func TestShardedWorkConservation(t *testing.T) {
	w := synthetic(core.SGXDiE, 10_000, 0)
	c := openCfg(256)
	c.Dispatch = serve.DispatchSharded
	a := mustSim(t, w, c)
	if want := c.Clients * c.RequestsPerClient; a.Requests != want || a.Succeeded != want {
		t.Fatalf("sharded run finished %d/%d requests, want %d", a.Succeeded, a.Requests, want)
	}
	if a.DispatchStats.Steals == 0 || a.DispatchStats.StolenAttempts < a.DispatchStats.Steals {
		t.Errorf("expected work stealing under bursty imbalance, got %+v", a.DispatchStats)
	}
	b := mustSim(t, w, c)
	if a.Check != b.Check || a.DispatchStats != b.DispatchStats {
		t.Errorf("sharded replay diverged: %+v vs %+v", a.DispatchStats, b.DispatchStats)
	}
}

// TestBatchAmortizesTransitions: with batching, the worker-side
// ECALL/EEXIT pairs are paid per batch instead of per attempt, so the
// transition count must drop and the mean batch size must exceed one
// under queue pressure.
func TestBatchAmortizesTransitions(t *testing.T) {
	w := synthetic(core.SGXDiE, 10_000, 0)
	base := openCfg(256)
	unbatched := mustSim(t, w, base)
	batched := base
	batched.Batch = 16
	bres := mustSim(t, w, batched)
	if bres.Breakdown.Transitions >= unbatched.Breakdown.Transitions {
		t.Errorf("batching did not amortize transitions: %d (batched) vs %d (unbatched)",
			bres.Breakdown.Transitions, unbatched.Breakdown.Transitions)
	}
	ds := bres.DispatchStats
	if ds.Batches == 0 || ds.BatchedAttempts <= ds.Batches {
		t.Errorf("no multi-attempt batches formed under overload: %+v", ds)
	}
	if bres.ThroughputQPS <= unbatched.ThroughputQPS {
		t.Errorf("batched throughput %.0f qps not above unbatched %.0f qps",
			bres.ThroughputQPS, unbatched.ThroughputQPS)
	}
}

// TestShardBatchBeatsGlobalAtScale is the in-package twin of the bench
// shard_scaling_ok gate: at 256 open-loop DiE clients whose offered
// load oversaturates the transition-bound global queue, sharded+batched
// dispatch must hold well over 1.5x the global throughput with a lower
// p99.
func TestShardBatchBeatsGlobalAtScale(t *testing.T) {
	w := synthetic(core.SGXDiE, 10_000, 0)
	global := mustSim(t, w, openCfg(256))
	sb := openCfg(256)
	sb.Dispatch = serve.DispatchSharded
	sb.Batch = 16
	sbres := mustSim(t, w, sb)
	if ratio := sbres.ThroughputQPS / global.ThroughputQPS; ratio < 1.5 {
		t.Errorf("sharded+batched/global throughput = %.2fx, want >= 1.5x", ratio)
	}
	if sbres.P99 >= global.P99 {
		t.Errorf("sharded+batched p99 %d not below global %d", sbres.P99, global.P99)
	}
}

// TestOpenLoopArrivals: Poisson arrivals complete the request budget
// deterministically.
func TestOpenLoopArrivals(t *testing.T) {
	w := synthetic(core.SGXDiE, 10_000, 0)
	c := openCfg(64)
	c.Arrival.MeanGapCycles = 300_000
	a := mustSim(t, w, c)
	if want := c.Clients * c.RequestsPerClient; a.Requests != want {
		t.Fatalf("finished %d requests, want %d", a.Requests, want)
	}
	if b := mustSim(t, w, c); a.Check != b.Check {
		t.Errorf("open-loop replay diverged")
	}
}

// TestOpenLoopOverloadQueues pins the defining open-loop property:
// arrivals do not wait for responses, so driving the same pool harder
// (shorter gaps) piles up queueing delay instead of throttling load —
// p99 must grow sharply while the closed-loop variant's cannot.
func TestOpenLoopOverloadQueues(t *testing.T) {
	w := synthetic(core.SGXDiE, 10_000, 0)
	mild := openCfg(64)
	mild.Arrival.MeanGapCycles = 2_000_000
	hot := openCfg(64)
	hot.Arrival.MeanGapCycles = 40_000
	m := mustSim(t, w, mild)
	h := mustSim(t, w, hot)
	if h.P99 < 4*m.P99 {
		t.Errorf("overload p99 %d not >= 4x light-load p99 %d", h.P99, m.P99)
	}
	if h.Breakdown.QueueWaitCycles <= m.Breakdown.QueueWaitCycles {
		t.Errorf("overload queue wait %d not above light load %d",
			h.Breakdown.QueueWaitCycles, m.Breakdown.QueueWaitCycles)
	}
}

// TestShardedAdmissionPerShard: admission control still sheds under
// sharded dispatch (the limit applies per shard queue).
func TestShardedAdmissionPerShard(t *testing.T) {
	w := synthetic(core.SGXDiE, 10_000, 0)
	c := openCfg(256)
	c.Arrival.MeanGapCycles = 40_000 // far past saturation
	c.Dispatch = serve.DispatchSharded
	c.AdmitDepth = 4
	c.MaxRetries = 2
	r := mustSim(t, w, c)
	if r.Breakdown.Shed == 0 {
		t.Errorf("overloaded sharded pool with AdmitDepth=4 shed nothing: %+v", r.Breakdown)
	}
	if want := c.Clients * c.RequestsPerClient; r.Requests != want {
		t.Errorf("terminal requests %d, want %d", r.Requests, want)
	}
}

// fillDispatchStats mirrors fillBreakdown for the dispatch counters.
func fillDispatchStats(t *testing.T, d *serve.DispatchStats, base uint64) {
	t.Helper()
	v := reflect.ValueOf(d).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("DispatchStats has a field of unsupported kind %v: teach fillDispatchStats (and Fold) about it", f.Kind())
		}
		f.SetUint(base * uint64(i+1))
	}
}

// TestDispatchStatsCoverAllFields pins Fold's sensitivity to every
// DispatchStats counter, as TestBreakdownFoldCoversAllFields does for
// Breakdown.
func TestDispatchStatsCoverAllFields(t *testing.T) {
	var a serve.DispatchStats
	fillDispatchStats(t, &a, 5)
	h0 := a.Fold(0xcbf29ce484222325)
	v := reflect.ValueOf(&a).Elem()
	for i := 0; i < v.NumField(); i++ {
		mutated := a
		mv := reflect.ValueOf(&mutated).Elem().Field(i)
		mv.SetUint(mv.Uint() + 1)
		if mutated.Fold(0xcbf29ce484222325) == h0 {
			t.Errorf("Fold insensitive to field %s", v.Type().Field(i).Name)
		}
	}
}

// TestScaleParseRoundTrip covers the new flag-facing parsers.
func TestScaleParseRoundTrip(t *testing.T) {
	for _, d := range []serve.DispatchKind{serve.DispatchGlobal, serve.DispatchSharded} {
		got, err := serve.ParseDispatchKind(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDispatchKind(%q) = %v, %v", d.String(), got, err)
		}
	}
	if got, err := serve.ParseArrivalKind(serve.ArrivalPoisson.String()); err != nil || got != serve.ArrivalPoisson {
		t.Errorf("ParseArrivalKind(%q) = %v, %v", serve.ArrivalPoisson.String(), got, err)
	}
	if _, err := serve.ParseDispatchKind("bogus"); err == nil {
		t.Error("ParseDispatchKind accepted bogus")
	}
	if _, err := serve.ParseArrivalKind("bogus"); err == nil {
		t.Error("ParseArrivalKind accepted bogus")
	}
}
