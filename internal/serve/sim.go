package serve

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sgxbench/internal/agg"
	"sgxbench/internal/obs"
	"sgxbench/internal/sgx"
)

// Config describes one serving scenario over a calibrated Workload.
type Config struct {
	// Clients is the number of clients (default 1). Closed loop (nil
	// Arrival): each has one request in flight, thinks for ThinkCycles
	// after a response, then issues the next. Open loop (Arrival set):
	// each issues on its own arrival clock regardless of responses.
	Clients int
	// Workers is the enclave worker-pool size (default 1).
	Workers int
	// RequestsPerClient is how many logical requests each client issues
	// (default 1). Retried attempts do not count extra.
	RequestsPerClient int
	// Sync selects the dispatch queue's synchronization model.
	Sync SyncKind
	// Mem selects the memory-provisioning mode.
	Mem MemMode
	// Weights gives the request mix over the workload's classes; nil
	// means uniform. Length must match the workload's class count.
	Weights []int
	// ThinkCycles is the client pause between a response and the next
	// request; zero keeps every client saturating the pool. Ignored in
	// open loop (Arrival non-nil).
	ThinkCycles uint64
	// JitterPct varies each request's service time deterministically by
	// up to ±JitterPct percent (seeded; zero disables).
	JitterPct int
	// Seed drives the deterministic class picks, jitter, arrival gaps
	// and steal victim order.
	Seed uint64

	// --- Dispatch shape (all zero: one global queue, one attempt per
	// enclave entry, closed loop) ---

	// Dispatch selects the queue topology: one global queue, or one
	// queue per worker with deterministic work stealing.
	Dispatch DispatchKind
	// Batch lets a worker claim up to this many queued attempts in one
	// dispatch-lock critical section and serve them in a single enclave
	// entry, amortizing the two worker transitions (and any AEX-storm
	// exposure) across the batch. Results are handed back as each
	// attempt finishes (exit-less async completion); the worker's EEXIT
	// happens once, after the batch. 0 or 1: one attempt per entry,
	// whose response leaves with the EEXIT.
	Batch int
	// Arrival switches the scenario to open-loop traffic (see
	// ArrivalPlan). Nil keeps the closed loop.
	Arrival *ArrivalPlan

	// --- Resilience (all zero: no faults, deadlines, retries or
	// admission limit) ---

	// Fault injects a deterministic failure schedule (nil: fault-free).
	Fault *FaultPlan
	// DeadlineCycles is the client-side per-attempt deadline: an
	// attempt not answered this many cycles after its issue is
	// abandoned and counts a timeout. The server is deadline-unaware —
	// a worker that pops an abandoned attempt still executes it, which
	// is exactly the wasted work that melts the unbounded-queue
	// variant down under faults. Zero disables deadlines.
	DeadlineCycles uint64
	// MaxRetries is how many extra attempts a client gives a logical
	// request after a shed, timeout, transient abort or crash loss;
	// exhausting them fails the request. Zero: fail on first error.
	MaxRetries int
	// BackoffBase and BackoffCap shape the client retry backoff:
	// attempt n waits min(BackoffBase<<(n-1), BackoffCap) cycles,
	// spread by deterministic jitter so retries cannot arrive in
	// lockstep. BackoffBase zero retries immediately.
	BackoffBase uint64
	BackoffCap  uint64
	// AdmitDepth is the per-queue admission limit: a submission that
	// finds its target queue this deep is shed at the dispatch lock (a
	// cheap rejection the client can retry) instead of deepening the
	// queue. Under DispatchSharded the limit applies per shard. Zero:
	// unbounded queues, never shed.
	AdmitDepth int

	// --- Observability attachments (excluded from the serialized
	// scenario shape: they observe a replay, they are not part of it) ---

	// Trace, when set, receives per-attempt spans on the virtual clock:
	// submit/queue/service/batch intervals with worker, shard,
	// generation and retry attribution, plus shed/timeout/crash/rebuild
	// markers. Purely observational — the simulator only hands the
	// tracer values it computes anyway, so an attached tracer leaves
	// every simulated cycle and check value bit-identical (the
	// zero-perturbation differential tests pin this).
	Trace *obs.Tracer `json:"-"`
	// Metrics, when set, receives a gauge timeline (queue depths,
	// worker states, committed pages) sampled at its interval. Sampling
	// happens as the event loop passes each boundary and never
	// schedules events, so it cannot perturb event order.
	Metrics *obs.Metrics `json:"-"`
}

func (c Config) normalized() Config {
	if c.Clients < 1 {
		c.Clients = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.RequestsPerClient < 1 {
		c.RequestsPerClient = 1
	}
	return c
}

// Name returns the scenario's bench workload identifier.
func (c Config) Name() string {
	return fmt.Sprintf("serve.%s.%s", c.Sync, c.Mem)
}

// ClientSummary is one client's latency summary.
type ClientSummary struct {
	Requests   int    `json:"requests"`
	MeanCycles uint64 `json:"mean_cycles"`
	MaxCycles  uint64 `json:"max_cycles"`
}

// ClassSummary is one query class's latency summary.
type ClassSummary struct {
	Name       string `json:"name"`
	Requests   int    `json:"requests"`
	MeanCycles uint64 `json:"mean_cycles"`
}

// Result reports one simulated serving scenario.
type Result struct {
	Setting string `json:"setting"`
	Queue   string `json:"queue"` // resolved sgx.QueueModel name
	Config  Config `json:"config"`
	// Requests is the number of logical requests that reached a
	// terminal state (Clients x RequestsPerClient).
	Requests int `json:"requests"`
	// Succeeded and Failed split Requests into answered requests and
	// requests dropped after exhausting their retry budget.
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	// MakespanCycles is the virtual time from the first issue to the
	// last terminal event; the scenario's simulated wall clock.
	MakespanCycles uint64 `json:"makespan_cycles"`
	// ThroughputQPS counts every terminal request over the makespan in
	// platform seconds; GoodputQPS counts only successes — the number
	// the degradation gate compares.
	ThroughputQPS float64 `json:"throughput_qps"`
	GoodputQPS    float64 `json:"goodput_qps"`
	// Latency percentiles (nearest-rank) over all requests, in cycles.
	// A failed request's latency runs to the moment it was dropped.
	P50 uint64 `json:"p50_cycles"`
	P95 uint64 `json:"p95_cycles"`
	P99 uint64 `json:"p99_cycles"`
	Max uint64 `json:"max_cycles"`

	Breakdown Breakdown `json:"breakdown"`
	// DispatchStats counts batches and steals; all zero for a global
	// unbatched scenario.
	DispatchStats DispatchStats   `json:"dispatch_stats"`
	PerClient     []ClientSummary `json:"per_client"`
	PerClass      []ClassSummary  `json:"per_class"`
	// Faults is the injected fault timeline (crashes and rebuild
	// completions on the virtual clock), capped at maxFaultEvents;
	// empty for fault-free scenarios. The Breakdown counters stay
	// exact past the cap.
	Faults []FaultEvent `json:"fault_events,omitempty"`
	// FaultsDropped counts fault events past the Faults cap — the
	// explicit truncation signal (the timeline used to cut off at
	// maxFaultEvents silently). Not folded into Check: the counters
	// were always exact, only the event list truncates.
	FaultsDropped uint64 `json:"fault_events_dropped,omitempty"`
	// Check folds every latency (in completion order), the breakdown,
	// the outcome split and the makespan into one FNV-1a value — the
	// deterministic number golden gates compare.
	Check uint64 `json:"check"`

	// lats backs ExactPercentiles: one latency per terminal request, in
	// completion order.
	lats []uint64
}

// ExactPercentiles recomputes the latency summary from the raw
// per-request latencies by sorting — the O(n log n) oracle the reported
// histogram-backed percentiles are tested against. Each reported
// percentile is >= its exact value and within one obs.BucketWidth of
// it; Max is exact on both paths.
func (r *Result) ExactPercentiles() (p50, p95, p99, max uint64) {
	sorted := append([]uint64(nil), r.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if n := len(sorted); n > 0 {
		max = sorted[n-1]
	}
	return pctl(sorted, 50), pctl(sorted, 95), pctl(sorted, 99), max
}

// Event kinds. Issue submits a request's next attempt (ECALL + queue
// push or shed), enqueue makes a pushed attempt poppable, done
// completes a worker's enclave entry, timeout abandons an attempt
// client-side, crash kills a worker's enclave, rebuilt returns the
// worker to the pool, arrive starts an open-loop client's next logical
// request, itemdone completes one attempt inside a batched entry.
const (
	evIssue = iota
	evEnqueue
	evDone
	evTimeout
	evCrash
	evRebuilt
	evArrive
	evItemDone
)

// maxIndex is the largest request, attempt serial, worker or
// pending-event count a replay can hold. The event loop's records are
// packed — 32-bit indices, serial, class and links, one field for the
// queue an attempt waits in and then the worker running it, flags in one
// byte — to 32 B (event), 32 B (request) and 40 B (attempt);
// TestRecordSizes pins the sizes. Config.Validate bounds the configured
// counts, submit and scheduleGen the totals only the replay knows.
const maxIndex = math.MaxInt32

type event struct {
	t    uint64
	seq  uint64 // schedule order: deterministic tie-break at equal times
	gen  uint64 // worker generation (evDone/evItemDone): stale completions are ignored
	who  int32  // request (evIssue), attempt slot (evEnqueue/evTimeout/evItemDone), worker (evDone/evCrash/evRebuilt), client (evArrive)
	kind uint8
}

// request is one logical client request: the unit of the latency
// percentiles and the retry budget. Closed loop keeps one live slot per
// client; open loop appends a new one per arrival, so a client can have
// several in flight.
type request struct {
	service    uint64
	firstIssue uint64
	client     int32
	class      int32
	attempt    int32 // attempts used so far
	active     bool
}

type worker struct {
	busy      bool
	down      bool // enclave torn down, rebuild pending
	inIdle    bool
	gen       uint64
	batch     []int32 // attempt slots of the running enclave entry
	steals    uint64
	nextCrash uint64
	crashes   uint64 // per-worker crash count, salts the next schedule draw
}

// fifo is a growable ring of worker ids: capacity tracks the peak
// depth, not the number of ids ever pushed.
type fifo struct {
	buf  []int32 // length zero or a power of two
	head int
	n    int
}

func (f *fifo) push(v int32) {
	if f.n == len(f.buf) {
		buf := make([]int32, max(2*len(f.buf), 8))
		k := copy(buf, f.buf[f.head:])
		copy(buf[k:], f.buf[:f.head])
		f.buf, f.head = buf, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

func (f *fifo) pop() int32 {
	v := f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// shard is one dispatch queue with its own lock state. DispatchGlobal
// uses a single shard; DispatchSharded one per worker.
type shard struct {
	queue    queue  // waiting attempts, oldest first
	lockFree uint64 // this queue's dispatch-lock state
}

// sim is the mutable state of one scenario replay.
type sim struct {
	w     *Workload
	cfg   Config
	q     sgx.QueueModel
	trans uint64 // one-way transition cost (0 outside enclaves)
	fc    sgx.FaultCosts

	events *timerWheel
	seq    uint64
	cumW   []int // running sums of cfg.Weights (nil: uniform mix)
	err    error // set when a count outgrows the packed index width, the clock wraps or crashes loop

	shards      []shard
	rr          uint64 // round-robin submission spread over shards
	idle        fifo   // idle worker ids
	workers     []worker
	atts        slab
	serials     int32 // attempts created so far
	reqs        []request
	issued      []int  // logical requests each client has issued so far
	edmmFree    uint64 // enclave-global page-commit serialization
	rebuildFree uint64 // kernel enclave-management lock (crash rebuilds)

	bd            Breakdown
	ds            DispatchStats
	lats          []uint64 // latency per logical request, terminal order
	succeeded     int
	failed        int
	makespan      uint64
	perClient     []ClientSummary
	classReq      []int
	classLat      []uint64
	faults        []FaultEvent
	faultsDropped uint64
}

// splitmix64 is the standard SplitMix64 mixer — the deterministic,
// dependency-free randomness source for class picks, jitter, fault
// draws, arrival gaps, steal victim order and backoff spread.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Trace track convention: server-side spans (queue waits, enclave
// entries, faults) land on pid 0 with the worker id as tid; client-side
// spans (submissions, whole-request lifetimes, sheds, timeouts) on
// pid 1 with the client id. Perfetto renders them as two process
// groups with one track per worker / per client.
const (
	tracePIDServe  = 0
	tracePIDClient = 1
)

func (s *sim) schedule(t uint64, kind uint8, who int32) { s.scheduleGen(t, kind, who, 0) }

func (s *sim) scheduleGen(t uint64, kind uint8, who int32, gen uint64) {
	if s.events.n == maxIndex {
		s.err = fmt.Errorf("serve: more than %d pending events", maxIndex)
		return
	}
	if t < s.events.cur {
		// Every delay is added to the current time, so only a sum past
		// 2^64 cycles lands before the event being handled.
		s.err = fmt.Errorf("serve: virtual clock wrapped: an event at cycle %d handled at cycle %d", t, s.events.cur)
		return
	}
	s.seq++
	s.events.push(event{t: t, seq: s.seq, kind: kind, who: who, gen: gen})
}

// lockPass runs one critical section of a shard's dispatch lock
// starting at t and returns its completion time.
func (s *sim) lockPass(sh *shard, t uint64) uint64 {
	sh.lockFree = s.q.Pass(t, sh.lockFree)
	s.bd.LockCycles += sh.lockFree - t
	return sh.lockFree
}

func (s *sim) sharded() bool { return len(s.shards) > 1 }

// pickShard spreads submissions round-robin over the shards — the
// deterministic stand-in for a client-side shard choice.
func (s *sim) pickShard() int32 {
	si := int32(s.rr % uint64(len(s.shards)))
	s.rr++
	return si
}

// drawService draws a class's jittered service time from the request's
// class-pick random value.
func (s *sim) drawService(class int32, r uint64) uint64 {
	base := s.w.Classes[class].ServiceCycles
	if j := s.cfg.JitterPct; j > 0 {
		// base scaled into [100-j, 100+j] percent, deterministically.
		base = base * (100 - uint64(j) + splitmix64(r)%uint64(2*j+1)) / 100
	}
	return base
}

// issueReq submits request idx's next attempt at time t. In the closed
// loop the request slot doubles as the client's current logical
// request: an inactive slot means this is the fresh issue (class pick
// and service draw happen now).
func (s *sim) issueReq(idx int32, t uint64) {
	r := &s.reqs[idx]
	if !r.active {
		c := r.client
		rnd := splitmix64(s.cfg.Seed ^ uint64(c)<<32 ^ uint64(s.issued[c]))
		r.class = s.pickClass(rnd)
		r.service = s.drawService(r.class, rnd)
		r.active = true
		r.attempt = 0
		r.firstIssue = t
	}
	s.submit(idx, t)
}

// submit pushes request idx's next attempt: the client's ECALL, the
// push through the target shard's dispatch lock — where admission
// control may shed it — and the EEXIT.
func (s *sim) submit(idx int32, t uint64) {
	r := &s.reqs[idx]
	r.attempt++
	if s.trans > 0 {
		s.bd.Transitions += 2 // submit ECALL + EEXIT
		s.bd.TransitionCycles += 2 * s.trans
	}
	si := s.pickShard()
	sh := &s.shards[si]
	pushDone := s.lockPass(sh, t+s.trans)
	if s.cfg.AdmitDepth > 0 && sh.queue.n >= s.cfg.AdmitDepth {
		// Admission control: the push found the queue at its depth
		// limit and is rejected inside the same critical section — a
		// cheap, immediate failure the client can back off from,
		// instead of a request the pool would serve long past its
		// deadline.
		s.bd.Shed++
		if tr := s.cfg.Trace; tr != nil {
			tr.Record(obs.Span{Name: "shed", Cat: "client", Ph: obs.PhInstant, T: pushDone,
				PID: tracePIDClient, TID: int(r.client), NArgs: 3, Args: [obs.MaxAttrs]obs.Attr{
					{Key: "req", Val: uint64(idx)}, {Key: "attempt", Val: uint64(r.attempt)},
					{Key: "shard", Val: uint64(si)}}})
		}
		s.failAttempt(idx, pushDone)
		return
	}
	if s.serials == maxIndex {
		s.err = fmt.Errorf("serve: more than %d attempts", maxIndex)
		return
	}
	var held uint8
	if s.cfg.DeadlineCycles > 0 {
		held = attTimer
	}
	ai := s.atts.alloc()
	*s.atts.at(ai) = attempt{service: r.service, serial: s.serials, req: idx, class: r.class, at: si, flags: held}
	s.serials++
	if tr := s.cfg.Trace; tr != nil {
		tr.Record(obs.Span{Name: "submit", Cat: "client", Ph: obs.PhComplete, T: t, Dur: pushDone - t,
			PID: tracePIDClient, TID: int(r.client), NArgs: 3, Args: [obs.MaxAttrs]obs.Attr{
				{Key: "req", Val: uint64(idx)}, {Key: "attempt", Val: uint64(r.attempt)},
				{Key: "shard", Val: uint64(si)}}})
	}
	s.schedule(pushDone, evEnqueue, ai)
	if s.cfg.DeadlineCycles > 0 {
		s.schedule(t+s.cfg.DeadlineCycles, evTimeout, ai)
	}
}

func (s *sim) pickClass(r uint64) int32 {
	cum := s.cumW
	if cum == nil {
		return int32(r % uint64(len(s.w.Classes)))
	}
	pick := int(r % uint64(cum[len(cum)-1]))
	i := 0
	for pick >= cum[i] {
		i++
	}
	return int32(i)
}

// backoff returns attempt n's retry delay: capped exponential growth
// from BackoffBase, with deterministic jitter spreading concurrent
// retries over the top quarter of the interval. Without a cap the
// growth saturates at 2^62 cycles instead of wrapping.
func (s *sim) backoff(c, n int32) uint64 {
	b := s.cfg.BackoffBase
	if b == 0 {
		return 0
	}
	for i := int32(1); i < n && b < 1<<62; i++ {
		b <<= 1
		if bc := s.cfg.BackoffCap; bc > 0 && b >= bc {
			b = bc
			break
		}
	}
	if j := b / 4; j > 0 {
		r := splitmix64(s.cfg.Seed ^ 0x5bf03635c0ffee ^ uint64(c)<<24 ^ s.bd.Retries)
		b = b - j + r%(2*j+1)
	}
	return b
}

// failAttempt handles a retriable failure (shed, timeout, transient
// abort, crash loss) of request idx's current attempt at time t: back
// off and retry if budget remains, otherwise drop the logical request.
func (s *sim) failAttempt(idx int32, t uint64) {
	r := &s.reqs[idx]
	if int(r.attempt) <= s.cfg.MaxRetries {
		s.bd.Retries++
		s.schedule(t+s.backoff(r.client, r.attempt), evIssue, idx)
		return
	}
	s.finishRequest(idx, t, false)
}

// finishRequest records the terminal state of request idx at time t;
// in the closed loop it also closes the client loop (think, then the
// next logical request).
func (s *sim) finishRequest(idx int32, t uint64, success bool) {
	r := &s.reqs[idx]
	lat := t - r.firstIssue
	s.lats = append(s.lats, lat)
	s.bd.Requests++
	if success {
		s.succeeded++
	} else {
		s.failed++
	}
	s.makespan = max(s.makespan, t)
	pc := &s.perClient[r.client]
	pc.Requests++
	pc.MeanCycles += lat // sum here; divided at the end
	pc.MaxCycles = max(pc.MaxCycles, lat)
	s.classReq[r.class]++
	s.classLat[r.class] += lat
	if tr := s.cfg.Trace; tr != nil {
		var ok uint64
		if success {
			ok = 1
		}
		tr.Record(obs.Span{Name: "request", Cat: "client", Ph: obs.PhComplete, T: r.firstIssue, Dur: lat,
			PID: tracePIDClient, TID: int(r.client), NArgs: 3, Args: [obs.MaxAttrs]obs.Attr{
				{Key: "class", Val: uint64(r.class)}, {Key: "attempts", Val: uint64(r.attempt)},
				{Key: "ok", Val: ok}}})
	}
	r.active = false
	if s.cfg.Arrival == nil {
		if s.issued[r.client] < s.cfg.RequestsPerClient {
			s.issued[r.client]++
			s.schedule(t+s.cfg.ThinkCycles, evIssue, r.client)
		}
	}
}

// popIdle returns an idle, alive worker id, or -1. Crashed workers that
// were idle stay in the FIFO as tombstones and are skipped here, as are
// entries gone stale because claimWorker took their worker out of band;
// crashed workers re-enter via evRebuilt.
func (s *sim) popIdle() int32 {
	for s.idle.n > 0 {
		w := s.idle.pop()
		if !s.workers[w].inIdle {
			continue // stale: claimed out of band since it was pushed
		}
		s.workers[w].inIdle = false
		if !s.workers[w].down {
			return w
		}
	}
	return -1
}

func (s *sim) pushIdle(w int32) {
	if !s.workers[w].inIdle {
		s.workers[w].inIdle = true
		s.idle.push(w)
	}
}

// claimWorker finds an idle worker for shard si's new work: under
// sharded dispatch the shard's own worker has affinity (claimed out of
// band, its idle-FIFO entry left behind as a stale tombstone), falling
// back to the global idle FIFO either way.
func (s *sim) claimWorker(si int32) int32 {
	if s.sharded() {
		if wk := &s.workers[si]; wk.inIdle && !wk.down {
			wk.inIdle = false
			return si
		}
	}
	return s.popIdle()
}

// homeShard is the queue worker w drains first: its own under sharded
// dispatch, the global queue otherwise.
func (s *sim) homeShard(w int32) int32 {
	if s.sharded() {
		return w
	}
	return 0
}

// findWork is a freed (or rebuilt) worker's hunt at time t: drain the
// home shard, else steal, else go idle.
func (s *sim) findWork(w int32, t uint64) {
	home := s.homeShard(w)
	if s.shards[home].queue.n > 0 {
		s.dispatch(w, home, t)
		return
	}
	if s.sharded() && s.trySteal(w, t) {
		return
	}
	s.pushIdle(w)
}

// trySteal has worker w probe the other shards in a seeded rotation and
// migrate the oldest half of the first non-empty victim's queue to its
// own, then dispatch from home. Two critical sections are charged: the
// victim's (claim the half) and the home shard's (deposit); probing an
// empty queue is free (an uncontended emptiness check).
func (s *sim) trySteal(w int32, t uint64) bool {
	ns := int32(len(s.shards))
	wk := &s.workers[w]
	r := splitmix64(s.cfg.Seed ^ 0x57ea1c0de ^ uint64(w)<<32 ^ wk.steals)
	start := int32(r % uint64(ns-1))
	for i := int32(0); i < ns-1; i++ {
		v := (w + 1 + (start+i)%(ns-1)) % ns
		vic := &s.shards[v]
		d := vic.queue.n
		if d == 0 {
			continue
		}
		wk.steals++
		s.ds.Steals++
		k := (d + 1) / 2 // steal half, rounded up
		tv := s.lockPass(vic, t)
		home := &s.shards[w]
		th := s.lockPass(home, tv)
		vic.queue.moveOldest(&s.atts, k, &home.queue)
		s.ds.StolenAttempts += uint64(k)
		s.dispatch(w, w, th)
		return true
	}
	return false
}

// commitPages charges the dynamic-memory page commits for one attempt
// of the given class starting at start, returning when execution can
// begin. MemPreSized is free.
func (s *sim) commitPages(class int32, start uint64) uint64 {
	if s.cfg.Mem != MemDynamic {
		return start
	}
	pages := uint64(s.w.Classes[class].Pages)
	s.bd.PagesCommitted += pages
	if s.w.InEnclave {
		// EDMM: the worker runs the AEX/EACCEPT protocol for its own
		// pages, and the kernel serializes commits enclave-wide.
		commitStart := max(start, s.edmmFree)
		s.bd.CommitWaitCycles += commitStart - start
		cost := pages * s.w.OS.EDMMPage
		s.bd.CommitCycles += cost
		start = commitStart + cost
		s.edmmFree = start
		return start
	}
	// Plain minor faults: per-worker cost, no serialization.
	cost := pages * s.w.OS.MinorFault
	s.bd.CommitCycles += cost
	return start + cost
}

// dispatch has worker w claim attempts from shard si at time t in one
// dispatch-lock critical section and serve them in one enclave entry:
// one attempt unbatched, up to Batch batched. A single worker
// ECALL/EEXIT pair brackets the entry, so batching amortizes the two
// transitions. Each attempt commits its pages, runs its service
// stretched by any AEX storm windows and may abort transiently.
// Batched, each result leaves the moment its attempt finishes
// (evItemDone — exit-less async completion) and evDone only frees the
// worker; unbatched, the response leaves with the EEXIT at evDone.
func (s *sim) dispatch(w, si int32, t uint64) {
	sh := &s.shards[si]
	popDone := s.lockPass(sh, t)
	batched := s.cfg.Batch > 1
	n := 1
	if batched {
		n = min(sh.queue.n, s.cfg.Batch)
		s.ds.Batches++
		s.ds.BatchedAttempts += uint64(n)
	}
	wk := &s.workers[w]
	wk.gen++
	wk.busy = true
	wk.batch = wk.batch[:0]
	if s.trans > 0 {
		s.bd.Transitions += 2 // one worker ECALL + EEXIT per entry
		s.bd.TransitionCycles += 2 * s.trans
	}
	start := popDone + s.trans // worker ECALL
	for i := 0; i < n; i++ {
		idx := sh.queue.pop(&s.atts)
		att := s.atts.at(idx)
		att.at = w
		att.flags |= attBatch
		wk.batch = append(wk.batch, idx)
		s.bd.QueueWaitCycles += popDone - att.enq
		itemStart := start
		start = s.commitPages(att.class, start)
		work := att.service
		var abort uint64
		if p := s.cfg.Fault; p != nil && p.FailPct > 0 {
			fr := splitmix64(p.Seed ^ 0xfa17 ^ uint64(att.serial)<<16)
			if int(fr%100) < p.FailPct {
				// Transient enclave-thread abort after a deterministic
				// fraction of the service: the partial work is wasted.
				att.flags |= attAborted
				abort = 1
				work = att.service * (1 + (fr>>8)%98) / 100
			}
		}
		end, aexN := s.advanceWork(start, work)
		s.bd.AEXEvents += aexN
		s.bd.AEXCycles += aexN * s.fc.AEX
		s.bd.ServiceCycles += work
		if abort != 0 {
			end += s.fc.AbortDetect
		}
		start = end
		if batched {
			att.flags |= attItem
			s.scheduleGen(end, evItemDone, idx, wk.gen)
		} else {
			// The lone attempt's service span covers the whole entry,
			// ECALL through EEXIT.
			itemStart, end = popDone, end+s.trans
		}
		if tr := s.cfg.Trace; tr != nil {
			tr.Record(obs.Span{Name: "queue", Cat: "serve", Ph: obs.PhComplete, T: att.enq, Dur: popDone - att.enq,
				PID: tracePIDServe, TID: int(w), NArgs: 2, Args: [obs.MaxAttrs]obs.Attr{
					{Key: "req", Val: uint64(att.req)}, {Key: "shard", Val: uint64(si)}}})
			tr.Record(obs.Span{Name: s.w.Classes[att.class].Name, Cat: "service", Ph: obs.PhComplete,
				T: itemStart, Dur: end - itemStart, PID: tracePIDServe, TID: int(w), NArgs: 4, Args: [obs.MaxAttrs]obs.Attr{
					{Key: "req", Val: uint64(att.req)}, {Key: "gen", Val: wk.gen},
					{Key: "aex", Val: aexN}, {Key: "abort", Val: abort}}})
		}
	}
	done := start + s.trans // worker EEXIT
	if tr := s.cfg.Trace; tr != nil && batched {
		tr.Record(obs.Span{Name: "batch", Cat: "serve", Ph: obs.PhComplete, T: popDone, Dur: done - popDone,
			PID: tracePIDServe, TID: int(w), NArgs: 3, Args: [obs.MaxAttrs]obs.Attr{
				{Key: "n", Val: uint64(n)}, {Key: "gen", Val: wk.gen}, {Key: "shard", Val: uint64(si)}}})
	}
	s.scheduleGen(done, evDone, w, wk.gen)
}

// itemDone completes attempt ai at time t: a successful, un-abandoned
// attempt answers its client, an aborted one triggers the retry path,
// an abandoned one was wasted work. Batched, it runs at the attempt's
// own evItemDone while the worker keeps running the rest of the batch.
func (s *sim) itemDone(ai int32, t uint64, gen uint64) {
	att := s.atts.at(ai)
	if s.workers[att.at].gen != gen {
		return // the enclave crashed mid-batch; the attempt was re-routed
	}
	att.flags |= attDone
	s.makespan = max(s.makespan, t)
	if att.flags&attAbandoned != 0 {
		return // wasted work: the client's deadline already passed
	}
	if att.flags&attAborted != 0 {
		s.failAttempt(att.req, t)
	} else {
		s.finishRequest(att.req, t, true)
	}
}

// complete finishes worker w's enclave entry at time t. Unbatched, the
// lone attempt's outcome leaves with the EEXIT; batched, the outcomes
// already happened at their evItemDone times. Either way the freed
// worker hunts for the next work.
func (s *sim) complete(w int32, t uint64) {
	wk := &s.workers[w]
	wk.busy = false
	if s.cfg.Batch <= 1 {
		s.itemDone(wk.batch[0], t, wk.gen)
	}
	s.endEntry(wk)
	s.makespan = max(s.makespan, t)
	s.findWork(w, t)
}

// endEntry drops a finished or crashed enclave entry's hold on its
// attempts, freeing the slots nothing else holds.
func (s *sim) endEntry(wk *worker) {
	for _, ai := range wk.batch {
		s.atts.release(ai, attBatch)
	}
	wk.batch = wk.batch[:0]
}

// Simulate replays one serving scenario over the calibrated workload.
// Pure integer event-driven arithmetic on the virtual clock: the result
// is bit-reproducible across runs and engine paths. A structurally
// invalid Config (see Config.Validate) returns an error instead of a
// skewed replay.
func (w *Workload) Simulate(cfg Config) (*Result, error) {
	s, err := w.replay(cfg)
	if err != nil {
		return nil, err
	}
	return s.result(), nil
}

// replay validates cfg and runs its event loop to the last terminal
// request.
func (w *Workload) replay(cfg Config) (*sim, error) {
	if err := cfg.Validate(len(w.Classes)); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	nShards := 1
	if cfg.Dispatch == DispatchSharded {
		nShards = cfg.Workers
	}
	// Every logical request leaves one latency, so that slice is made
	// once at its known size. Attempt slots are recycled, so the slab
	// grows chunk by chunk with the peak number of live attempts; its
	// chunk list is sized for one attempt per request. A worker's batch
	// has room for one Batch, but all batches together for no more than
	// the request count plus one per worker. The wheel's slab starts at
	// about the events a run keeps pending — one per client, and per
	// worker a batch's completions plus two. An open loop's arrivals do
	// not wait for their pushes to land, so its enqueues in flight add
	// up to one per eight clients at saturation, sized at one per four.
	// Only deadline timers grow the slab past that.
	nReq := cfg.Clients * cfg.RequestsPerClient
	room := min(max(cfg.Batch, 1), nReq/cfg.Workers+1)
	pending := cfg.Clients + cfg.Workers*(room+2)
	if cfg.Arrival != nil {
		pending += cfg.Clients / 4
	}
	s := &sim{
		w:         w,
		cfg:       cfg,
		q:         w.queueModel(cfg.Sync),
		events:    newTimerWheel(pending),
		shards:    make([]shard, nShards),
		workers:   make([]worker, cfg.Workers),
		atts:      slab{chunks: make([]*[1 << slabShift]attempt, 0, nReq>>slabShift+1), free: -1},
		issued:    make([]int, cfg.Clients),
		lats:      make([]uint64, 0, nReq),
		perClient: make([]ClientSummary, cfg.Clients),
		classReq:  make([]int, len(w.Classes)),
		classLat:  make([]uint64, len(w.Classes)),
	}
	if cfg.Weights != nil {
		s.cumW = make([]int, len(cfg.Weights))
		total := 0
		for i, wt := range cfg.Weights {
			total += wt
			s.cumW[i] = total
		}
	}
	if w.InEnclave {
		s.trans = w.OS.Transition
	}
	if cfg.Fault != nil {
		s.fc = cfg.Fault.costs()
	}
	// Every worker's in-flight list is cut from one slab, room entries
	// each; a deeper batch grows its own list.
	lists := make([]int32, cfg.Workers*room)
	// The idle ring starts with room for every worker; only stale
	// tombstones can grow it past that.
	s.idle.buf = make([]int32, max(8, 1<<bits.Len(uint(cfg.Workers-1))))
	for wi := int32(0); wi < int32(cfg.Workers); wi++ {
		lo := int(wi) * room
		s.workers[wi].batch = lists[lo : lo : lo+room]
		s.pushIdle(wi)
		if cfg.Fault != nil && cfg.Fault.CrashInterval > 0 {
			s.workers[wi].nextCrash = s.crashDelay(wi, 0)
			s.schedule(s.workers[wi].nextCrash, evCrash, wi)
		}
	}
	if cfg.Arrival != nil {
		// Open loop: one request slot per arrival, appended as clients'
		// arrival clocks fire; the first arrival is one drawn gap in.
		s.reqs = make([]request, 0, nReq)
		for c := 0; c < cfg.Clients; c++ {
			s.issued[c] = 1
			s.schedule(cfg.Arrival.gap(cfg.Seed, c, 0), evArrive, int32(c))
		}
	} else {
		// Closed loop: request slot c is client c's live logical request.
		s.reqs = make([]request, cfg.Clients)
		for c := range s.reqs {
			s.reqs[c].client = int32(c)
			s.issued[c] = 1
			s.schedule(0, evIssue, int32(c))
		}
	}
	// Crash schedules stop once every client is done: without the
	// terminal test the crash-interval event chain would keep the loop
	// alive long after the last request completed. Terminal requests are
	// exactly Clients*RequestsPerClient, each counted once.
	for s.bd.Requests < uint64(nReq) && s.err == nil && !s.events.empty() {
		ev := s.events.pop()
		// Metrics sampling: between events the simulated state is
		// constant, so every boundary the clock is about to pass gets a
		// sample of the state as it stands. Pure reads — no event is
		// scheduled, no seq consumed — so an attached Metrics cannot
		// change the replay.
		if m := cfg.Metrics; m != nil {
			for m.Due(ev.t) {
				m.Record(s.gauges())
			}
		}
		switch ev.kind {
		case evIssue:
			s.issueReq(ev.who, ev.t)
		case evArrive:
			s.arrive(ev.who, ev.t)
		case evEnqueue:
			att := s.atts.at(ev.who)
			if att.flags&attAbandoned != 0 {
				// The deadline expired before the push even landed; the
				// client is already retrying.
				att.flags |= attDone
				s.atts.release(ev.who, 0)
				break
			}
			att.enq = ev.t
			si := att.at
			s.shards[si].queue.push(&s.atts, ev.who)
			if wi := s.claimWorker(si); wi >= 0 {
				s.dispatch(wi, si, ev.t)
			}
		case evDone:
			if wk := &s.workers[ev.who]; wk.busy && wk.gen == ev.gen {
				s.complete(ev.who, ev.t)
			}
		case evItemDone:
			s.itemDone(ev.who, ev.t, ev.gen)
			s.atts.release(ev.who, attItem)
		case evTimeout:
			att := s.atts.at(ev.who)
			if att.flags&(attDone|attAbandoned) == 0 {
				att.flags |= attAbandoned
				s.bd.Timeouts++
				if tr := s.cfg.Trace; tr != nil {
					tr.Record(obs.Span{Name: "timeout", Cat: "client", Ph: obs.PhInstant, T: ev.t,
						PID: tracePIDClient, TID: int(s.reqs[att.req].client), NArgs: 2, Args: [obs.MaxAttrs]obs.Attr{
							{Key: "req", Val: uint64(att.req)}, {Key: "attempt", Val: uint64(att.serial)}}})
				}
				s.failAttempt(att.req, ev.t)
			}
			s.atts.release(ev.who, attTimer)
		case evCrash:
			s.crash(ev.who, ev.t)
		case evRebuilt:
			wk := &s.workers[ev.who]
			wk.down = false
			s.recordFault(FaultEvent{T: ev.t, Kind: "rebuilt", Worker: int(ev.who)})
			s.findWork(ev.who, ev.t)
		}
	}
	return s, s.err
}

// gauges snapshots the simulator's instantaneous state for the metrics
// timeline. The per-shard depth slice is only materialized for sharded
// dispatch (a single global queue is already the QueueDepth gauge).
func (s *sim) gauges() (obs.Gauges, []uint64) {
	var g obs.Gauges
	var shards []uint64
	if s.sharded() {
		shards = make([]uint64, len(s.shards))
	}
	for i := range s.shards {
		d := uint64(s.shards[i].queue.n)
		g.QueueDepth += d
		g.MaxShardDepth = max(g.MaxShardDepth, d)
		if shards != nil {
			shards[i] = d
		}
	}
	for i := range s.workers {
		wk := &s.workers[i]
		if wk.busy {
			g.BusyWorkers++
			if s.cfg.Batch > 1 {
				g.InFlightBatches++
			}
		}
		if wk.down {
			g.DownWorkers++
		}
	}
	g.PagesCommitted = s.bd.PagesCommitted
	return g, shards
}

// pctl returns the nearest-rank p-th percentile of the sorted latencies.
func pctl(sorted []uint64, p int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max((len(sorted)*p+99)/100, 1)-1]
}

func (s *sim) result() *Result {
	res := &Result{
		Setting:        s.w.Setting.String(),
		Queue:          s.q.Name,
		Config:         s.cfg,
		Requests:       len(s.lats),
		Succeeded:      s.succeeded,
		Failed:         s.failed,
		MakespanCycles: s.makespan,
		Breakdown:      s.bd,
		DispatchStats:  s.ds,
		PerClient:      s.perClient,
		Faults:         s.faults,
		FaultsDropped:  s.faultsDropped,
		lats:           s.lats,
		PerClass:       make([]ClassSummary, 0, len(s.w.Classes)),
	}
	if s.makespan > 0 {
		secs := s.w.Plat.CyclesToSeconds(s.makespan)
		res.ThroughputQPS = float64(res.Requests) / secs
		res.GoodputQPS = float64(res.Succeeded) / secs
	}
	// Percentiles come from the log-bucketed histogram — one O(1)
	// Record per request instead of the old O(n log n) sort, at most
	// one bucket width (~3%) above the exact nearest-rank value and
	// clamped to the exact max (see Result.ExactPercentiles for the
	// retained oracle). Check folds the raw latencies, never the
	// percentiles, so the quantization cannot drift any golden value.
	h := obs.NewHistogram()
	for _, l := range s.lats {
		h.Record(l)
	}
	res.P50 = h.Percentile(50)
	res.P95 = h.Percentile(95)
	res.P99 = h.Percentile(99)
	res.Max = h.Max()
	for i := range res.PerClient {
		if r := res.PerClient[i].Requests; r > 0 {
			res.PerClient[i].MeanCycles /= uint64(r)
		}
	}
	for i, cc := range s.w.Classes {
		cs := ClassSummary{Name: cc.Name, Requests: s.classReq[i]}
		if cs.Requests > 0 {
			cs.MeanCycles = s.classLat[i] / uint64(cs.Requests)
		}
		res.PerClass = append(res.PerClass, cs)
	}
	res.Check = s.check(res)
	return res
}

// check folds the scenario's observable behaviour into one FNV-1a value:
// every latency in completion order, the outcome split, the breakdown,
// the makespan, the class mix and the dispatch counters. Shares the
// hash discipline of the pipeline check values.
func (s *sim) check(res *Result) uint64 {
	h := agg.FNVOffset64
	h = agg.Mix(h, uint64(res.Requests))
	h = agg.Mix(h, uint64(res.Succeeded))
	h = agg.Mix(h, uint64(res.Failed))
	h = agg.Mix(h, res.MakespanCycles)
	for _, l := range s.lats {
		h = agg.Mix(h, l)
	}
	h = res.Breakdown.Fold(h)
	for i := range s.classReq {
		h = agg.Mix(h, uint64(s.classReq[i]))
	}
	return res.DispatchStats.Fold(h)
}
