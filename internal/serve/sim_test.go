package serve

import (
	"slices"
	"testing"
	"unsafe"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
	"sgxbench/internal/sgx"
)

// TestRecordSizes guards the packed sizes stated beside the event
// record: the pre-sized slices and the wheel's slab are multiples of
// them, so a field that widens one shows here before it shows in the
// allocation budget.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"event", unsafe.Sizeof(event{}), 32},
		{"request", unsafe.Sizeof(request{}), 32},
		{"attempt", unsafe.Sizeof(attempt{}), 40},
		{"wheelNode", unsafe.Sizeof(wheelNode{}), 40},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.got, r.want)
		}
	}
}

// TestAttemptSlotsTrackLiveAttempts: an overloaded open-loop run behind
// admission control holds its queue near AdmitDepth for the whole
// replay, so the queue never drains. The attempt slots it hands out must
// stay at the scale of the attempts alive at once — queued, pushing or
// in service — however many attempts the replay creates.
func TestAttemptSlotsTrackLiveAttempts(t *testing.T) {
	m := obs.NewMetrics(20_000, 1<<16)
	cfg := Config{
		Clients: 256, Workers: 8, RequestsPerClient: 256, Sync: SyncLockFree, JitterPct: 10, Seed: 7,
		AdmitDepth: 48, MaxRetries: 2, BackoffBase: 50_000,
		Arrival: &ArrivalPlan{Kind: ArrivalPoisson, MeanGapCycles: 400_000},
		Metrics: m,
	}
	s, err := wheelTestWorkload(core.SGXDiE).replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	for _, sm := range m.Samples() {
		peak = max(peak, sm.G.QueueDepth)
	}
	if s.bd.Shed == 0 || peak < uint64(cfg.AdmitDepth) {
		t.Fatalf("scenario is not overloaded: %d shed, sampled peak depth %d", s.bd.Shed, peak)
	}
	live := cfg.AdmitDepth + cfg.Workers*max(cfg.Batch, 1)
	if slots := int(s.atts.n); slots > 2*live {
		t.Errorf("%d attempt slots for at most %d queued or running attempts", slots, live)
	}
	if s.serials < int32(50*s.atts.n) {
		t.Errorf("only %d attempts went through %d slots: the run is too short to show reuse", s.serials, s.atts.n)
	}
	if got, limit := len(s.idle.buf), max(2*cfg.Workers, 8); got > limit {
		t.Errorf("idle ring holds %d slots for %d workers (limit %d)", got, cfg.Workers, limit)
	}
}

// TestStealMovesOldestHalfInOrder: a steal takes ceil(d/2) attempts off
// the victim's head and appends them to the thief's home queue in their
// queue order, so the thief's next entry serves the oldest first and the
// victim keeps its newest ones, in order.
func TestStealMovesOldestHalfInOrder(t *testing.T) {
	w := wheelTestWorkload(core.PlainCPU)
	cfg := Config{Workers: 2, Dispatch: DispatchSharded, Batch: 2, Sync: SyncLockFree}.normalized()
	s := &sim{w: w, cfg: cfg, q: w.queueModel(cfg.Sync), events: newTimerWheel(0),
		shards: make([]shard, 2), workers: make([]worker, 2), atts: slab{free: -1}}
	for serial := int32(0); serial < 7; serial++ {
		ai := s.atts.alloc()
		*s.atts.at(ai) = attempt{service: 1_000, serial: serial, at: 1}
		s.shards[1].queue.push(&s.atts, ai)
	}
	if !s.trySteal(0, 0) {
		t.Fatal("worker 0 found nothing to steal")
	}
	serials := func(ais []int32) []int32 {
		var out []int32
		for _, ai := range ais {
			out = append(out, s.atts.at(ai).serial)
		}
		return out
	}
	drain := func(q *queue) []int32 {
		var ais []int32
		for q.n > 0 {
			ais = append(ais, q.pop(&s.atts))
		}
		return serials(ais)
	}
	// Seven queued: four stolen, the first two dispatched as one batch.
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"thief's entry", serials(s.workers[0].batch), []int32{0, 1}},
		{"thief's queue", drain(&s.shards[0].queue), []int32{2, 3}},
		{"victim's queue", drain(&s.shards[1].queue), []int32{4, 5, 6}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s holds serials %v, want %v", c.name, c.got, c.want)
		}
	}
	if s.ds.Steals != 1 || s.ds.StolenAttempts != 4 {
		t.Errorf("dispatch stats %+v, want one steal of 4 attempts", s.ds)
	}
}

// TestSlotReuseAfterCrash: enclaves crash mid-batch while deadlines,
// retries and steals are live, so stale evItemDone events (which read
// their slot before the generation check) and evTimeout events of
// attempts that finished long before their deadline are pending when
// slots come free. Neither may reach a reused slot: the replay keeps
// the value it had when every attempt kept its own slot for the whole
// run, and the free list holds each slot at most once.
func TestSlotReuseAfterCrash(t *testing.T) {
	fc := sgx.DefaultFaultCosts()
	fc.Teardown, fc.RebuildBase = 25_000, 150_000
	cfg := Config{Clients: 48, Workers: 8, RequestsPerClient: 32, Sync: SyncLockFree, JitterPct: 10, Seed: 7,
		Dispatch: DispatchSharded, Batch: 8, DeadlineCycles: 1_000_000, MaxRetries: 5, BackoffBase: 50_000, BackoffCap: 800_000,
		Fault: &FaultPlan{Seed: 11, CrashInterval: 1_500_000, RebuildPages: 64, Costs: fc,
			StormInterval: 2_000_000, StormLen: 900_000, StormAEXGap: 2_000, FailPct: 3},
		Trace: obs.NewTracer(1 << 16),
	}
	s, err := wheelTestWorkload(core.SGXDiE).replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.result()
	const check, makespan = 0x154c8fa1014fe9ba, 37_130_960
	if res.Check != check || res.MakespanCycles != makespan {
		t.Errorf("replay moved: check=%#x makespan=%d, want %#x, %d", res.Check, res.MakespanCycles, uint64(check), makespan)
	}
	// The scenario must exercise what it is about.
	if cfg.Trace.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", cfg.Trace.Dropped())
	}
	batchEnd := map[int]uint64{} // per worker: end of its latest batch span
	midBatch := 0
	for _, sp := range cfg.Trace.Spans() {
		switch sp.Name {
		case "batch":
			batchEnd[sp.TID] = sp.T + sp.Dur
		case "crash":
			if sp.T < batchEnd[sp.TID] {
				midBatch++
			}
		}
	}
	bd := res.Breakdown
	if midBatch == 0 || bd.Timeouts == 0 || bd.Retries == 0 || res.DispatchStats.Steals == 0 {
		t.Fatalf("scenario too tame: %d crashes mid-batch, %d timeouts, %d retries, %d steals",
			midBatch, bd.Timeouts, bd.Retries, res.DispatchStats.Steals)
	}
	if s.serials < 10*s.atts.n {
		t.Errorf("%d attempts in %d slots: too little reuse to test", s.serials, s.atts.n)
	}
	seen := make([]bool, s.atts.n)
	for i := s.atts.free; i >= 0; i = s.atts.at(i).next {
		if seen[i] {
			t.Fatalf("slot %d is on the free list twice", i)
		}
		seen[i] = true
		if f := s.atts.at(i).flags; f&(attDone|attHeld) != attDone {
			t.Errorf("free slot %d has flags %#x: not done, or still held", i, f)
		}
	}
}
