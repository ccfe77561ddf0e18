package serve

import (
	"container/heap"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/platform"
	"sgxbench/internal/sgx"
)

// eventHeap is the container/heap binary heap the simulator ran on
// before the timer wheel — kept here as the (time, seq) ordering oracle
// the wheel is differentially tested against.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(e event) { heap.Push(&q.h, e) }
func (q *heapQueue) pop() event   { return heap.Pop(&q.h).(event) }
func (q *heapQueue) empty() bool  { return len(q.h) == 0 }

// popBoth pops one event from each queue and fails on any divergence:
// the wheel must reproduce the heap's (time, seq) order bit-exactly,
// including the full event payload.
func popBoth(t *testing.T, wh *timerWheel, hp *heapQueue, step int) event {
	t.Helper()
	a, b := wh.pop(), hp.pop()
	if a != b {
		t.Fatalf("step %d: wheel popped %+v, heap popped %+v", step, a, b)
	}
	return a
}

// TestWheelDifferentialRandom drives the timer wheel and the
// container/heap oracle through identical randomized push/pop
// interleavings across seeds. Delta draws deliberately mix equal times
// (seq tie-breaks), small same-slot offsets, and jumps across every
// cascade boundary (64^1 .. 64^9 cycles ahead), so slots at all levels
// fill, drain and cascade.
func TestWheelDifferentialRandom(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		wh := newTimerWheel(0)
		hp := &heapQueue{}
		r := seed
		next := func(mod uint64) uint64 {
			r = splitmix64(r)
			return r % mod
		}
		var now, lastPush, seq uint64
		pending := 0
		push := func() {
			var tt uint64
			switch next(8) {
			case 0: // exact tie with the previous push: pure seq ordering
				tt = lastPush
				if tt < now {
					tt = now
				}
			case 1: // same level-0 window
				tt = now + next(64)
			case 2, 3: // a few slots ahead
				tt = now + next(4096)
			default: // jump across a cascade boundary at a random level
				lvl := 1 + next(9)
				tt = now + uint64(1)<<(6*lvl) - 32 + next(64)
			}
			lastPush = tt
			seq++
			e := event{t: tt, seq: seq, kind: uint8(next(6)), who: int32(next(1024))}
			wh.push(e)
			hp.push(e)
			pending++
		}
		for i := 0; i < 20000; i++ {
			if pending == 0 || next(5) < 2 {
				push()
				continue
			}
			now = popBoth(t, wh, hp, i).t
			pending--
		}
		for step := 0; pending > 0; pending-- {
			popBoth(t, wh, hp, step)
			step++
		}
		if !wh.empty() || !hp.empty() {
			t.Fatalf("seed %d: queues not drained together", seed)
		}
	}
}

// TestWheelCascadeBoundaries pins the exact cascade edges: events
// straddling 64^l - 1, 64^l, 64^l + 1 for the lower levels, pushed in
// scrambled order with duplicate times, must pop in heap order.
func TestWheelCascadeBoundaries(t *testing.T) {
	var times []uint64
	for lvl := uint(1); lvl <= 4; lvl++ {
		b := uint64(1) << (6 * lvl)
		times = append(times, b-1, b, b+1, b, 2*b-1, 2*b, 3*b+63)
	}
	wh := newTimerWheel(0)
	hp := &heapQueue{}
	r := uint64(99)
	for seq := uint64(1); seq <= 4096; seq++ {
		r = splitmix64(r)
		e := event{t: times[r%uint64(len(times))], seq: seq, who: int32(seq)}
		wh.push(e)
		hp.push(e)
	}
	for i := 0; i < 4096; i++ {
		popBoth(t, wh, hp, i)
	}
}

// TestWheelLonePops drives the wheel against the heap on a sparse
// timeline: every far event sits on a 2^12-cycle grid, so most cascades
// clear a slot holding one node and serve it without re-filing (grid
// ties still give multi-node slots). The grid's offset varies by seed,
// up to all-ones low digits, where cur+1 carries into the upper levels.
// After every pop one event is pushed at the new cur, at cur+1 or far
// ahead, so pushes land in the slot a lone pop just left and next to it
// as well as across the upper levels.
func TestWheelLonePops(t *testing.T) {
	const grid = 1 << 12
	offsets := []uint64{0, 1, 63, grid - 1}
	for seed := uint64(1); seed <= 8; seed++ {
		off := offsets[seed%4]
		wh := newTimerWheel(0)
		hp := &heapQueue{}
		r := seed
		next := func(mod uint64) uint64 {
			r = splitmix64(r)
			return r % mod
		}
		var now, seq uint64
		push := func(tt uint64) {
			seq++
			e := event{t: tt, seq: seq, kind: uint8(next(6)), who: int32(seq)}
			wh.push(e)
			hp.push(e)
		}
		far := func() uint64 { return now&^(grid-1) + grid*(1+next(uint64(1)<<next(21))) + off }
		for i := 0; i < 256; i++ {
			push(far())
		}
		for i := 0; i < 20000; i++ {
			now = popBoth(t, wh, hp, i).t
			switch next(4) {
			case 0:
				push(now)
			case 1:
				push(now + 1)
			default:
				push(far())
			}
		}
		for i := 0; i < 256; i++ {
			popBoth(t, wh, hp, i)
		}
		if !wh.empty() || !hp.empty() {
			t.Fatalf("seed %d: queues not drained together", seed)
		}
	}
}

// TestWheelLatePush: the simulator never schedules into the past, but
// the wheel must not silently diverge from heap semantics if it ever
// did — a late event pops first, ordered among other late events.
func TestWheelLatePush(t *testing.T) {
	wh := newTimerWheel(0)
	hp := &heapQueue{}
	both := func(e event) { wh.push(e); hp.push(e) }
	both(event{t: 1000, seq: 1})
	popBoth(t, wh, hp, 0) // advances wheel cur to 1000
	both(event{t: 2000, seq: 2})
	both(event{t: 500, seq: 3}) // late
	both(event{t: 500, seq: 4}) // late tie: seq order
	both(event{t: 250, seq: 5}) // later but earlier t: sorts first
	for i := 0; i < 4; i++ {
		popBoth(t, wh, hp, i)
	}
}

// wheelTestWorkload is a hand-built workload for full-replay
// differential tests (internal twin of serve_test.synthetic).
func wheelTestWorkload(setting core.Setting) *Workload {
	return &Workload{
		Setting:   setting,
		Plat:      platform.XeonGold6326(),
		OS:        sgx.DefaultOSCosts(),
		InEnclave: setting.InEnclave(),
		Classes: []ClassCost{
			{Name: "a", ServiceCycles: 40_000, Pages: 16},
			{Name: "b", ServiceCycles: 90_000, Pages: 24},
		},
	}
}

// pinnedConfigs is the scenario matrix TestSimulatePinnedReplays and
// TestTracePinned replay: a base closed loop and the named variations
// of it.
func pinnedConfigs() (Config, map[string]func(Config) Config) {
	base := Config{Clients: 48, Workers: 8, RequestsPerClient: 6, Sync: SyncLockFree, JitterPct: 10, Seed: 7}
	fault := &FaultPlan{Seed: 11, CrashInterval: 4_000_000, StormInterval: 2_000_000,
		StormLen: 900_000, StormAEXGap: 2_000, FailPct: 3}
	cfgs := map[string]func(Config) Config{
		"legacy.mutex.dyn": func(c Config) Config {
			c.Sync, c.Mem, c.ThinkCycles = SyncMutex, MemDynamic, 200_000
			return c
		},
		"legacy.fault": func(c Config) Config {
			c.Fault, c.DeadlineCycles, c.MaxRetries = fault, 2_500_000, 5
			c.BackoffBase, c.BackoffCap, c.AdmitDepth = 50_000, 800_000, 12
			return c
		},
		"shard.steal": func(c Config) Config {
			c.Dispatch, c.Clients = DispatchSharded, 96
			return c
		},
		"shard.batch.fault": func(c Config) Config {
			c.Dispatch, c.Batch, c.Fault, c.MaxRetries = DispatchSharded, 8, fault, 5
			return c
		},
		"open.poisson": func(c Config) Config {
			c.Arrival = &ArrivalPlan{Kind: ArrivalPoisson, MeanGapCycles: 400_000}
			return c
		},
	}
	return base, cfgs
}

// TestSimulatePinnedReplays replays a scenario matrix spanning every
// simulator feature — legacy global closed loop, faults with
// deadlines/retries/admission, sharded stealing, batching, and
// open-loop Poisson arrivals — and requires the values the
// container/heap event loop produced for them (captured on the last
// commit that could still replay on the heap, where heap and wheel
// agreed on every one). The four legacy check values were regenerated
// once, when the check started folding DispatchStats for every
// scenario; their makespans and breakdowns are still the heap's.
// Together with the golden gate this pins that no event-loop change
// since moved anything observable.
func TestSimulatePinnedReplays(t *testing.T) {
	base, cfgs := pinnedConfigs()
	pins := []struct {
		setting  core.Setting
		name     string
		check    uint64
		makespan uint64
		bd       Breakdown
	}{
		{core.PlainCPU, "legacy.fault", 0x19e7b4e6b596931e, 3_975_008,
			Breakdown{Requests: 288, QueueWaitCycles: 33371359, LockCycles: 74419, ServiceCycles: 18929792, Retries: 175, Shed: 167, Crashes: 3, RebuildCycles: 7130504, AEXEvents: 789, AEXCycles: 5523000}},
		{core.PlainCPU, "legacy.mutex.dyn", 0xa3e7d3521298d290, 3_510_100,
			Breakdown{Requests: 288, QueueWaitCycles: 79300200, LockCycles: 2477600, CommitCycles: 8604000, PagesCommitted: 5736, ServiceCycles: 18576700}},
		{core.PlainCPU, "open.poisson", 0x9b38a5b8dce1b34f, 4_693_752,
			Breakdown{Requests: 288, QueueWaitCycles: 22926904, LockCycles: 18055, ServiceCycles: 18576700}},
		{core.PlainCPU, "shard.batch.fault", 0x85c1a4e67083e133, 3_220_630,
			Breakdown{Requests: 288, QueueWaitCycles: 53271773, LockCycles: 17190, ServiceCycles: 19035222, Retries: 11, Crashes: 1, RebuildCycles: 1748000, AEXEvents: 776, AEXCycles: 5432000}},
		{core.PlainCPU, "shard.steal", 0x1189782e661cac7b, 4_774_050,
			Breakdown{Requests: 576, QueueWaitCycles: 368449290, LockCycles: 55660, ServiceCycles: 37698100}},
		{core.SGXDiE, "legacy.fault", 0x19d03dddfe579ada, 4_107_577,
			Breakdown{Requests: 288, Transitions: 1724, TransitionCycles: 13792000, QueueWaitCycles: 46228907, LockCycles: 917900, ServiceCycles: 18095832, Retries: 288, Shed: 290, Crashes: 3, RebuildCycles: 7130504, AEXEvents: 712, AEXCycles: 4984000}},
		{core.SGXDiE, "legacy.mutex.dyn", 0x2d78eb4d5b3e9718, 231_041_300,
			Breakdown{Requests: 288, Transitions: 1152, TransitionCycles: 9216000, QueueWaitCycles: 8339051800, LockCycles: 48592000, CommitWaitCycles: 1562386300, CommitCycles: 229440000, PagesCommitted: 5736, ServiceCycles: 18576700}},
		{core.SGXDiE, "open.poisson", 0x463291de8ac7b44c, 4_717_752,
			Breakdown{Requests: 288, Transitions: 1152, TransitionCycles: 9216000, QueueWaitCycles: 86792689, LockCycles: 699994, ServiceCycles: 18576700}},
		{core.SGXDiE, "shard.batch.fault", 0x85542bd94198b840, 3_316_640,
			Breakdown{Requests: 288, Transitions: 748, TransitionCycles: 5984000, QueueWaitCycles: 62686644, LockCycles: 45830, ServiceCycles: 19071528, Retries: 11, Crashes: 1, RebuildCycles: 1748000, AEXEvents: 789, AEXCycles: 5523000}},
		{core.SGXDiE, "shard.steal", 0x8b2e3bc6e6e6920e, 5_988_320,
			Breakdown{Requests: 576, Transitions: 2304, TransitionCycles: 18432000, QueueWaitCycles: 461885640, LockCycles: 276050, ServiceCycles: 37698100}},
	}
	for _, p := range pins {
		res, err := wheelTestWorkload(p.setting).Simulate(cfgs[p.name](base))
		if err != nil {
			t.Fatalf("%v/%s: %v", p.setting, p.name, err)
		}
		if res.Check != p.check || res.MakespanCycles != p.makespan || res.Breakdown != p.bd {
			t.Errorf("%v/%s: replay moved:\ngot:  check=%#x makespan=%d %+v\nwant: check=%#x makespan=%d %+v",
				p.setting, p.name, res.Check, res.MakespanCycles, res.Breakdown, p.check, p.makespan, p.bd)
		}
	}
}
