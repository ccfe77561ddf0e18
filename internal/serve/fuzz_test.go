package serve

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/sgx"
)

// fuzzSettings are the execution settings a fuzz input picks from.
var fuzzSettings = []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}

// FuzzSimulate replays arbitrary scenarios over every Config, FaultPlan
// and ArrivalPlan field. Only sizes are clamped (clients <= 64, workers
// <= 16, requests per client <= 16, retries <= 8), so every input runs
// in milliseconds. Simulate must either return an error or a result
// that keeps the conservation laws: every logical request reaches one
// terminal state, no latency outlasts the makespan, and the batching,
// stealing and transition counters stay zero where their policy is off.
// The seed corpus under testdata/fuzz holds the pinned replay matrix.
func FuzzSimulate(f *testing.F) {
	f.Fuzz(func(t *testing.T, setting int,
		clients, workers, rpc, sync, mem, nWeights, w0, w1 int,
		think uint64, jitter int, seed uint64, dispatch, batch int,
		open bool, kind int, meanGap uint64, burst int, ramp uint64,
		faulty bool, fseed, crash uint64, rebuildPages int64, storm, stormLen, aexGap uint64, failPct int,
		aex, abortDetect, teardown, rebuildBase, rebuildPage uint64,
		deadline uint64, retries int, backoffBase, backoffCap uint64, admit int) {
		c := Config{
			Clients: min(clients, 64), Workers: min(workers, 16), RequestsPerClient: min(rpc, 16),
			Sync: SyncKind(sync), Mem: MemMode(mem), ThinkCycles: think, JitterPct: jitter, Seed: seed,
			Dispatch: DispatchKind(dispatch), Batch: batch,
			DeadlineCycles: deadline, MaxRetries: min(retries, 8),
			BackoffBase: backoffBase, BackoffCap: backoffCap, AdmitDepth: admit,
		}
		if nWeights > 0 {
			c.Weights = make([]int, nWeights%4)
			for i := range c.Weights {
				c.Weights[i] = w0
				if i%2 == 1 {
					c.Weights[i] = w1
				}
			}
		}
		if open {
			c.Arrival = &ArrivalPlan{Kind: ArrivalKind(kind), MeanGapCycles: meanGap, BurstSize: burst, RampPeriodCycles: ramp}
		}
		if faulty {
			c.Fault = &FaultPlan{Seed: fseed, CrashInterval: crash, RebuildPages: rebuildPages,
				StormInterval: storm, StormLen: stormLen, StormAEXGap: aexGap, FailPct: failPct,
				Costs: sgx.FaultCosts{AEX: aex, AbortDetect: abortDetect, Teardown: teardown,
					RebuildBase: rebuildBase, RebuildPage: rebuildPage}}
		}
		st := fuzzSettings[uint(setting)%uint(len(fuzzSettings))]
		res, err := wheelTestWorkload(st).Simulate(c)
		if err != nil {
			return
		}
		n := c.normalized()
		want := n.Clients * n.RequestsPerClient
		if res.Requests != want || res.Succeeded+res.Failed != want || res.Breakdown.Requests != uint64(want) {
			t.Fatalf("requests %d, succeeded %d + failed %d, breakdown %d; want %d",
				res.Requests, res.Succeeded, res.Failed, res.Breakdown.Requests, want)
		}
		for i, l := range res.lats {
			if l > res.MakespanCycles {
				t.Fatalf("latency %d of request %d outlasts the makespan %d", l, i, res.MakespanCycles)
			}
		}
		ds := res.DispatchStats
		if c.Batch <= 1 && (ds.Batches != 0 || ds.BatchedAttempts != 0) {
			t.Fatalf("unbatched scenario counted batches: %+v", ds)
		}
		if c.Dispatch != DispatchSharded && (ds.Steals != 0 || ds.StolenAttempts != 0) {
			t.Fatalf("unsharded scenario counted steals: %+v", ds)
		}
		if !st.InEnclave() && (res.Breakdown.Transitions != 0 || res.Breakdown.TransitionCycles != 0) {
			t.Fatalf("%v counted enclave transitions: %+v", st, res.Breakdown)
		}
	})
}
