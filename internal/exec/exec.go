// Package exec runs multi-threaded simulated phases.
//
// Operators are structured as barrier-separated phases (exactly how the
// paper's join implementations work: histogram, partition, build, probe).
// Within a phase each simulated thread advances its own private cycle
// clock; the host runs the threads' bodies one after another, in thread
// id order, on the calling goroutine. At the barrier the group clock
// advances to the slowest thread, then is raised further if the phase's
// aggregate DRAM or UPI traffic exceeds what the socket bandwidth allows
// in that time (roofline composition). This reproduces both
// compute/latency-bound behaviour (joins) and bandwidth-bound behaviour
// (multi-threaded scans, Fig 14; UPI-bound cross-NUMA scans, Fig 16).
//
// Simulated concurrency is in the clocks, not in the host: a phase's
// outcome follows from its inputs alone, whatever the host schedules, and
// a panicking body unwinds through Phase to its caller.
package exec

import (
	"time"

	"sgxbench/internal/engine"
	"sgxbench/internal/obs"
	"sgxbench/internal/platform"
)

// Group is a set of simulated threads that execute phases together.
type Group struct {
	Plat    *platform.Platform
	Threads []*engine.Thread
	epc     *engine.EPCDomain // enclave EPC capacity model (nil: unlimited)
	clock   uint64
	phases  []PhaseStats
	prof    *obs.Profiler // optional cycle-attribution sink; nil: off

	// Phase's per-call state, kept across phases: each thread's stats at
	// the phase start.
	before []engine.Stats
}

// PhaseStats describes one completed phase.
type PhaseStats struct {
	Name       string
	WallCycles uint64
	Busiest    uint64 // slowest thread's cycles (before bandwidth raise)
	BWBound    bool   // wall time was raised by a bandwidth roof
	HostNanos  int64  // real host time spent simulating the phase
	Agg        engine.Stats
}

// NewGroup creates n threads. nodeOf maps a thread index to its socket
// (nil pins everything to node 0, the paper's default single-socket
// setup). Threads on the same socket share that socket's L3.
func NewGroup(cfg engine.Config, n int, nodeOf func(i int) int) *Group {
	if nodeOf == nil {
		nodeOf = func(int) int { return 0 }
	}
	perNode := map[int]int{}
	for i := 0; i < n; i++ {
		perNode[nodeOf(i)]++
	}
	g := &Group{Plat: cfg.Plat, Threads: make([]*engine.Thread, n), epc: cfg.EPC}
	for i := 0; i < n; i++ {
		c := cfg
		c.Node = nodeOf(i)
		c.L3Share = perNode[c.Node]
		// The EPC is per enclave, not per socket: all n threads share it
		// regardless of the node mapping.
		c.EPCShare = n
		g.Threads[i] = engine.NewThread(c, i)
	}
	return g
}

// Release hands every thread's cache and TLB models back for later
// groups. Only the code that created g calls it, when it returns; a
// released group has no threads, and Phase on it panics.
func (g *Group) Release() {
	for _, t := range g.Threads {
		t.Release()
	}
	g.Threads = nil
}

// Clock returns the group-aligned simulated time.
func (g *Group) Clock() uint64 { return g.clock }

// AttachProfiler routes completed phases into p as leaf records. The profiler only observes values the group computes
// anyway — attaching one changes no clock, stat or phase outcome.
func (g *Group) AttachProfiler(p *obs.Profiler) { g.prof = p }

// Scope opens a named profile scope around a pipeline stage and returns
// the closer that attributes the stage's clock advance to it. With no
// profiler attached both halves are no-ops, so operators can scope
// unconditionally:
//
//	defer g.Scope("join")()
func (g *Group) Scope(name string) func() {
	if g.prof == nil {
		return func() {}
	}
	g.prof.Push(name)
	start := g.clock
	return func() { g.prof.Pop(g.clock - start) }
}

// Phase runs body on every thread, one thread after another in id
// order, and advances the group clock with bandwidth composition. It
// returns the phase statistics.
func (g *Group) Phase(name string, body func(t *engine.Thread, id int)) PhaseStats {
	if g.Threads == nil {
		panic("exec: Phase " + name + " on a released group")
	}
	start := g.clock
	if len(g.before) != len(g.Threads) {
		g.before = make([]engine.Stats, len(g.Threads))
	}
	for i, t := range g.Threads {
		t.SetCycle(start)
		g.before[i] = t.Stats()
	}
	hostStart := time.Now()
	for i, t := range g.Threads {
		body(t, i)
		t.Drain()
	}

	ps := PhaseStats{Name: name, HostNanos: time.Since(hostStart).Nanoseconds()}
	var dram [2]uint64
	var upi uint64
	for i, t := range g.Threads {
		s := t.Stats()
		cyc := s.Cycles - start
		if cyc > ps.Busiest {
			ps.Busiest = cyc
		}
		d := s.Sub(g.before[i])
		ps.Agg.Add(d)
		dram[0] += d.DRAMBytes[0]
		dram[1] += d.DRAMBytes[1]
		upi += d.UPIBytes
	}
	wall := ps.Busiest
	for node := 0; node < 2; node++ {
		if need := uint64(float64(dram[node]) / g.Plat.SocketDRAMBW); need > wall {
			wall = need
			ps.BWBound = true
		}
	}
	if need := uint64(float64(upi) / g.Plat.UPIBW); need > wall {
		wall = need
		ps.BWBound = true
	}
	// Demand paging serializes across the enclave on the page-table lock,
	// as EDMM commits do: the phase cannot finish before the kernel
	// has worked through every fault it raised.
	wall += g.epc.SerialCycles()
	ps.WallCycles = wall
	ps.Agg.Cycles = wall
	g.clock = start + wall
	for _, t := range g.Threads {
		t.SetCycle(g.clock)
	}
	g.phases = append(g.phases, ps)
	if g.prof != nil {
		g.prof.Leaf(name, wall, ps.Agg.Attribution())
	}
	return ps
}

// Chunk splits n items over workers as evenly as possible and returns
// worker id's half-open range [lo, hi); the first n%workers workers take
// one item more.
func Chunk(n, workers, id int) (lo, hi int) {
	per := n / workers
	rem := n % workers
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

// Phases returns the recorded per-phase statistics in execution order.
func (g *Group) Phases() []PhaseStats { return g.phases }

// Mark is a checkpoint in a group's phase log. Pipeline stages take one
// before running so that the stage's own phases, aggregate stats and
// clock advance can be extracted afterwards, even though the group is
// shared across operators (simulated caches and TLBs deliberately carry
// over between stages). The zero Mark is the start of the phase
// log: Since(Mark{}) covers every recorded phase.
type Mark struct {
	phase int
	clock uint64
}

// Mark checkpoints the current phase count and group clock.
func (g *Group) Mark() Mark { return Mark{phase: len(g.phases), clock: g.clock} }

// Since returns the phases recorded after m, their aggregated stats
// (Cycles set to the clock advance since m), and that clock advance.
func (g *Group) Since(m Mark) ([]PhaseStats, engine.Stats, uint64) {
	ps := g.phases[m.phase:]
	var s engine.Stats
	for _, p := range ps {
		s.Add(p.Agg)
	}
	d := g.clock - m.clock
	s.Cycles = d
	return ps, s, d
}

// ResetPhases clears the recorded phase log and rebases the clock to 0.
func (g *Group) ResetPhases() {
	g.phases = nil
	g.clock = 0
}
