// Package engine implements the per-thread CPU timing model.
//
// Algorithms execute real Go code over real data and, for every memory
// operation, also inform the engine, which advances a simulated cycle
// clock. The model captures the micro-architectural mechanisms the paper
// identifies as performance-relevant for SGXv2:
//
//   - a structural cache and TLB hierarchy (internal/cache) with page-walk
//     costs whose PTE fetches themselves travel through the caches;
//   - memory-level parallelism: up to MLPSlots outstanding misses overlap,
//     so independent random accesses pipeline while dependent chains
//     (pointer chasing, B-tree descent) serialize via dependency tokens;
//   - a hardware prefetcher: sequential streams are bandwidth-paced rather
//     than latency-bound, which makes scans bandwidth-limited as in Fig 13;
//   - a store buffer and, centrally, the Speculative Store Bypass (SSB)
//     mitigation: when Mode.Mitigation is set — always the case inside SGX
//     enclaves (Section 4.2) — a load may not issue before the addresses
//     of all program-order-earlier stores are known. Outside enclaves
//     loads issue speculatively with a small misspeculation cost.
//
// SGX-specific memory costs (TME-MK line decryption for EPC pages, EPCM
// security checks on enclave page walks, UPI encryption for remote-socket
// EPC traffic) are charged based on each buffer's mem.Region.
//
// Invariant: the engine computes time only. It never produces or alters
// data values, so results are bit-identical across execution modes.
//
// # Reference seam
//
// The timing model is written down twice, and the two are required to
// produce identical simulated behaviour:
//
//   - the production engine (every file but reference.go): per-op
//     Load/Store/CAS and the bulk APIs — the sequential runs LoadRun,
//     LoadRunToks, LoadLines, StoreRun and StoreLinesNT, and the
//     random-access batches LoadGather, StoreScatter, RMWScatter,
//     LoadChain and CASLoad — over packed recency-ordered caches and TLBs
//     (cache.Cache) with fused probe+fill set walks, one translation step
//     (fastTranslate) behind a one-entry last-page cache, a one-entry MRU
//     line memo that charges same-line repeat accesses as pure L1 hits, a
//     cached prefetcher stream slot and precomputed stream-pacing
//     latencies;
//   - the reference engine (reference.go, Config.Reference = true): the
//     original implementation and the executable specification — one full
//     TLB probe, stream-table scan and separate cache probe/fill walk per
//     access over internal/cache's timestamp-LRU reference structures,
//     the TLBs' included, every run API decomposed into per-op Load/Store
//     calls.
//
// A Thread holds the reference engine behind one pointer, Thread.ref, nil
// in production, consulted at eight hand-over points and nowhere else:
// loadAt and storeAt (the single per-access primitives under Load, Store,
// CAS and all five gather/scatter APIs), hier (the page walker's metadata
// fetches), LoadRun, LoadRunToks, LoadLines and StoreRun (the run
// decompositions), and StoreLinesNT's translation step.
// No other file names a reference structure (CI greps for it), and the
// gather/scatter APIs have no reference variant at all: each is defined
// as its per-element loop over loadAt/storeAt on both engines.
//
// THE PRODUCTION ENGINE MAY NEVER CHANGE SIMULATED STATISTICS. Both
// engines must yield bit-identical Stats (cycles, hit counts, DRAM bytes,
// ...) and identical downstream cache/TLB state for the same access
// sequence; this package's trace tests and the operator packages' golden
// equivalence tests enforce this, and cmd/bench re-checks it on every run
// while measuring the host wall-clock gap between the two.
package engine

import (
	"fmt"
	"math/bits"
	"sync"

	"sgxbench/internal/cache"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
)

// Tok is a dependency token: the simulated cycle at which a value (or an
// address derived from it) becomes available. The zero token means
// "ready immediately".
type Tok uint64

// Mode describes how code executes, orthogonally to where data lives.
type Mode struct {
	Name string
	// Mitigation reports whether the Speculative Store Bypass mitigation
	// is active. It is permanently enabled inside SGX enclaves and can be
	// enabled outside via prctl (the paper's "Plain CPU M" setting).
	Mitigation bool
	// InEnclave reports whether code runs inside an enclave, which makes
	// OS interactions (futex sleep/wake, page commits) require enclave
	// transitions.
	InEnclave bool
}

// The four execution settings used throughout the paper's evaluation.
var (
	// PlainCPU is native execution without SGX (baseline).
	PlainCPU = Mode{Name: "Plain CPU"}
	// PlainCPUM is native execution with the SSB mitigation force-enabled
	// via prctl (Figures 6 and 9, setting "Plain CPU M").
	PlainCPUM = Mode{Name: "Plain CPU M", Mitigation: true}
	// Enclave is execution inside an SGXv2 enclave. Whether an access
	// pays EPC costs depends on the buffer's placement: allocate data in
	// mem.EPC for the paper's "SGX DiE" setting or in mem.Untrusted for
	// "SGX DoE".
	Enclave = Mode{Name: "SGX enclave", Mitigation: true, InEnclave: true}
)

// SGXCosts parameterizes the SGXv2-specific memory system costs.
type SGXCosts struct {
	// EPCLineDecrypt is added to every DRAM line transfer from/to EPC
	// memory (TME-MK adds ~11ns to LLC misses; Section 4.1).
	EPCLineDecrypt uint64
	// EPCMCheckCycles is the fixed extra page-walk cost for EPC pages
	// (SGX security checks added to address translation).
	EPCMCheckCycles uint64
	// EPCMAccesses is the number of EPCM metadata memory accesses charged
	// through the cache hierarchy per EPC page walk. With large enclave
	// working sets these metadata accesses miss the LLC themselves, which
	// is what makes random enclave accesses up to ~3x slower (Fig 5).
	EPCMAccesses int
	// UCELatency is added per cache line crossing the UPI link to a
	// remote socket's EPC (UPI Crypto Engine, Section 2).
	UCELatency uint64
	// EPCStreamTax is the multiplicative streaming bandwidth factor for
	// local EPC data (TME-MK; Fig 13: -3 % outside the caches).
	EPCStreamTax float64
	// UPIStreamTaxEPC is the multiplicative bandwidth factor for
	// encrypted UPI streams (Fig 16: 77% single-thread remote).
	UPIStreamTaxEPC float64
}

// DefaultSGXCosts returns the calibrated cost set used by all experiments.
func DefaultSGXCosts() SGXCosts {
	return SGXCosts{
		EPCLineDecrypt:  32, // ~11 ns at 2.9 GHz
		EPCMCheckCycles: 120,
		EPCMAccesses:    1,
		UCELatency:      150,
		EPCStreamTax:    0.97,
		UPIStreamTaxEPC: 0.77,
	}
}

// Stats aggregates the events observed by one thread.
type Stats struct {
	Cycles     uint64 // set by Drain / read via Thread.Cycle
	WorkCycles uint64

	Loads  uint64
	Stores uint64

	L1Hits  uint64
	L2Hits  uint64
	L3Hits  uint64
	DRAMAcc uint64 // LLC misses reaching DRAM (data accesses only)

	TLBWalks  uint64
	MetaAcc   uint64 // PTE + EPCM metadata memory accesses
	StallSSB  uint64 // cycles loads were delayed by the store-address barrier
	SpecFlush uint64 // misspeculation flushes (mitigation off)

	DRAMBytes    [2]uint64 // per-socket DRAM traffic in bytes
	UPIBytes     uint64    // cross-socket traffic in bytes
	StreamFills  uint64    // prefetched (bandwidth-paced) line fills
	RandomFills  uint64    // latency-bound line fills
	EvictedDirty uint64    // dirty L3 evictions (writeback traffic)
	NTStores     uint64    // non-temporal line stores (cache-bypassing)

	EPCFaults       uint64 // demand-paging faults on EPC data pages
	EPCEvictions    uint64 // EPC pages written back to make room
	EPCPagingCycles uint64 // cycles spent in the paging protocol
}

// Add accumulates other into s (Cycles is maxed, not summed).
func (s *Stats) Add(o Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.WorkCycles += o.WorkCycles
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.L3Hits += o.L3Hits
	s.DRAMAcc += o.DRAMAcc
	s.TLBWalks += o.TLBWalks
	s.MetaAcc += o.MetaAcc
	s.StallSSB += o.StallSSB
	s.SpecFlush += o.SpecFlush
	s.DRAMBytes[0] += o.DRAMBytes[0]
	s.DRAMBytes[1] += o.DRAMBytes[1]
	s.UPIBytes += o.UPIBytes
	s.StreamFills += o.StreamFills
	s.RandomFills += o.RandomFills
	s.EvictedDirty += o.EvictedDirty
	s.NTStores += o.NTStores
	s.EPCFaults += o.EPCFaults
	s.EPCEvictions += o.EPCEvictions
	s.EPCPagingCycles += o.EPCPagingCycles
}

// Sub returns the field-wise difference s - o, where o is an earlier
// snapshot of the same thread or aggregate (Cycles subtracts like every
// other counter — a snapshot delta, unlike Add's max). Phase deltas in
// internal/exec are computed with Sub; TestStatsSubCoversAllFields fails
// if a newly added Stats field is omitted here.
func (s Stats) Sub(o Stats) Stats {
	s.Cycles -= o.Cycles
	s.WorkCycles -= o.WorkCycles
	s.Loads -= o.Loads
	s.Stores -= o.Stores
	s.L1Hits -= o.L1Hits
	s.L2Hits -= o.L2Hits
	s.L3Hits -= o.L3Hits
	s.DRAMAcc -= o.DRAMAcc
	s.TLBWalks -= o.TLBWalks
	s.MetaAcc -= o.MetaAcc
	s.StallSSB -= o.StallSSB
	s.SpecFlush -= o.SpecFlush
	s.DRAMBytes[0] -= o.DRAMBytes[0]
	s.DRAMBytes[1] -= o.DRAMBytes[1]
	s.UPIBytes -= o.UPIBytes
	s.StreamFills -= o.StreamFills
	s.RandomFills -= o.RandomFills
	s.EvictedDirty -= o.EvictedDirty
	s.NTStores -= o.NTStores
	s.EPCFaults -= o.EPCFaults
	s.EPCEvictions -= o.EPCEvictions
	s.EPCPagingCycles -= o.EPCPagingCycles
	return s
}

// stream tracks one detected sequential access stream for the prefetcher.
// The table is indexed by 4 KiB page (hardware stream prefetchers track
// per-page state) with two ways per index and a one-bit MRU choice, so
// lookup and training are O(1) and fully deterministic — no table scan
// and no replacement ambiguity, which is what lets the per-op and batched
// paths share the function bit for bit. A stream that crosses into the
// next page migrates its streak to that page's slot; the second way keeps
// an aliasing pair of streams (e.g. a scan and its result writes) from
// evicting each other.
type stream struct {
	pageKey  uint64 // page+1; 0 means empty
	lastLine uint64
	streak   uint64
}

const nStreams = 16 // stream-table indexes (x2 ways)

// pwcEntries is the size of the paging-structure cache (Ice Lake keeps
// on the order of 32 PDE-cache entries, covering 64 MiB).
const pwcEntries = 32

// Thread is one simulated hardware thread with private L1/L2/TLB state and
// a share of the socket's L3.
type Thread struct {
	Plat  *platform.Platform
	Mode  Mode
	Costs SGXCosts
	Node  int // socket the thread is pinned to
	ID    int

	cycle        uint64
	issueAcc     int      // sub-cycle issue slots consumed (superscalar width)
	mlp          []uint64 // outstanding miss completion times
	sbuf         []uint64 // store buffer completion ring
	sbufPos      int
	storeBarrier uint64 // running max of store address-known times
	specCount    uint64

	// Cache hierarchy (nil on a reference thread, whose refModel owns the
	// reference structures instead, and after Release).
	l1, l2, l3, dtlb, stlb *cache.Cache

	// ref is the reference engine (reference.go): non-nil only when the
	// thread was built with Config.Reference.
	ref *refModel

	streams [2 * nStreams]stream
	mruWay  [nStreams]uint8
	lpShift uint // log2(lines per page) = pageShift - 6

	// pwc is the paging-structure cache (Intel's PML4E/PDPTE/PDE caches):
	// a direct-mapped cache of non-leaf page-table entries, tagged by the
	// 2 MiB region (page >> 9). On a hit the walker serves every non-leaf
	// level internally and only the leaf PTE fetch travels through the
	// memory hierarchy — the reason real page walks usually cost one
	// memory access, not one per level. Shared bit-for-bit by the per-op
	// and batched paths (deterministic, no replacement ambiguity).
	pwc [pwcEntries]uint64 // (page>>9)+1; 0 means empty

	// One-entry translation cache: the page of the most recent DTLB probe.
	// A repeat probe of that page is guaranteed to hit at the MRU position
	// of its set and leaves no state change, so the fast path skips it.
	// noPage (an impossible page number) marks it empty.
	lastPage uint64

	// One-entry line memo: the cache line of the thread's most recent data
	// access. A repeat access to the same line is guaranteed to hit the
	// MRU way of its L1 set (every access path leaves the accessed line
	// L1-MRU), to re-hit the MRU page of the translation path, and to
	// leave the prefetcher stream table unchanged (a same-line re-touch is
	// the stream's case 0), so the fast path charges it as a pure L1 hit
	// without probing any structure. The only state a repeat can change is
	// the line's dirty bit (a store after a load), applied via DirtyMRU.
	// noPage marks it empty.
	mruLine uint64

	// EPC demand-paging state (nil/empty when no EPCDomain is configured).
	// Residency is tracked per thread over the thread's private budget
	// (TotalPages / EPCShare): each thread faults its own working set in,
	// so its faults do not depend on the order in which a phase runs its
	// threads (see epc.go). epcRing/epcRef form the CLOCK (second-chance)
	// ring, epcIdx maps a resident page to its ring slot, and epcLast is a
	// one-entry memo mirroring mruLine: a re-touch of the most recent page
	// is a guaranteed no-op, which is what lets the fast path's same-line
	// skip stay bit-identical to the reference decomposition.
	epcDom   *EPCDomain
	epcRing  []uint64
	epcRef   []bool
	epcIdx   map[uint64]int
	epcHand  int
	epcCount int
	epcLast  uint64

	pageShift uint      // log2(Plat.PageBytes)
	pacedLat  [4]uint64 // precomputed stream-pacing cycle advance, idx = remote<<1|epc
	// Hot platform latencies mirrored into the thread to avoid a pointer
	// chase per access on the fast path.
	latL1, latL2, latL3 uint64

	// words is the pooled set mlp, sbuf and the EPC state came from; nil
	// on a reference thread and after Release.
	words *threadWords

	st Stats
}

// Config bundles the knobs for creating threads.
type Config struct {
	Plat    *platform.Platform
	Mode    Mode
	Costs   SGXCosts
	Node    int
	L3Share int // number of threads sharing the socket L3 (>=1)
	// EPC enables the demand-paging model: accesses to mem.EPC data pages
	// fault against a finite resident-set budget (see EPCDomain). nil
	// disables paging entirely — the pre-oversubscription behaviour.
	EPC *EPCDomain
	// EPCShare is the number of threads sharing the enclave's EPC capacity
	// (>= 1). Unlike L3Share it spans sockets: the EPC limit is per
	// enclave, not per socket.
	EPCShare int
	// Reference selects the reference engine (reference.go): run APIs
	// decompose into individual Load/Store calls and all probes use the
	// original timestamp-LRU structures. Simulated results and statistics
	// are identical either way (the production engine may never change
	// simulated stats); Reference exists for the golden equivalence tests
	// and as the cmd/bench baseline.
	Reference bool
}

// NewThread creates a thread with cold caches (possibly models a released
// thread handed back, reset by cache.Get) and empty MLP slots, store
// buffer and EPC state (possibly a released thread's words, cleared). It panics with the platform's
// Validate error if the model cannot run on cfg.Plat, and names a stream
// tax outside (0, 1].
func NewThread(cfg Config, id int) *Thread {
	if cfg.Plat == nil {
		panic("engine: Config.Plat is required")
	}
	if err := cfg.Plat.Validate(); err != nil {
		panic(err)
	}
	for _, tax := range []struct {
		name string
		v    float64
	}{{"EPCStreamTax", cfg.Costs.EPCStreamTax}, {"UPIStreamTaxEPC", cfg.Costs.UPIStreamTaxEPC}} {
		if !(tax.v > 0 && tax.v <= 1) {
			panic(fmt.Sprintf("engine: SGXCosts.%s must be in (0,1], got %g", tax.name, tax.v))
		}
	}
	l3geom := cfg.Plat.L3.Share(cfg.L3Share)
	t := &Thread{
		Plat:  cfg.Plat,
		Mode:  cfg.Mode,
		Costs: cfg.Costs,
		Node:  cfg.Node,
		ID:    id,
	}
	// Reference threads are never released, so they take new words.
	var w threadWords
	if !cfg.Reference {
		t.words = getThreadWords()
		w = *t.words
	}
	t.mlp = mem.Reuse(w.mlp, cfg.Plat.MLPSlots)
	t.sbuf = mem.Reuse(w.sbuf, cfg.Plat.StoreBufSize)
	clear(t.mlp)
	clear(t.sbuf)
	t.lastPage = noPage
	t.mruLine = noPage
	t.epcLast = noPage
	if cfg.EPC != nil && cfg.EPC.TotalPages > 0 {
		budget := int(max(cfg.EPC.TotalPages/max(int64(cfg.EPCShare), 1), 1))
		t.epcDom = cfg.EPC
		t.epcRing = mem.Reuse(w.epcRing, budget)
		t.epcRef = mem.Reuse(w.epcRef, budget)
		clear(t.epcRing)
		clear(t.epcRef)
		if t.epcIdx = w.epcIdx; t.epcIdx == nil {
			t.epcIdx = make(map[uint64]int, budget)
		}
		clear(t.epcIdx)
	}
	if cfg.Reference {
		t.ref = newRefModel(cfg.Plat, l3geom)
	} else {
		t.l1 = cache.Get(cfg.Plat.L1D)
		t.l2 = cache.Get(cfg.Plat.L2)
		t.l3 = cache.Get(l3geom)
		t.dtlb = cache.Get(cfg.Plat.DTLB.Cache())
		t.stlb = cache.Get(cfg.Plat.STLB.Cache())
	}
	t.pageShift = uint(bits.TrailingZeros64(uint64(cfg.Plat.PageBytes)))
	t.lpShift = t.pageShift - 6
	t.latL1, t.latL2, t.latL3 = cfg.Plat.LatL1, cfg.Plat.LatL2, cfg.Plat.LatL3
	// Stream-pacing cycle advances per line, by (remote, epc). Computed
	// once so the fast path avoids a float divide per paced access; the
	// expressions match the per-access formula bit for bit.
	line := float64(cfg.Plat.L1D.LineBytes)
	t.pacedLat[0] = uint64(line / cfg.Plat.CoreStreamBW)
	t.pacedLat[1] = uint64(line / (cfg.Plat.CoreStreamBW * cfg.Costs.EPCStreamTax))
	t.pacedLat[2] = uint64(line / cfg.Plat.RemoteStreamBW)
	t.pacedLat[3] = uint64(line / (cfg.Plat.RemoteStreamBW * cfg.Costs.UPIStreamTaxEPC))
	return t
}

// Release hands the thread's cache and TLB models and its host words
// back for a later NewThread. Their pointers become nil and the memos
// empty, so a later access panics instead of probing another thread's
// cache or words. Releasing twice, or a reference thread (never pooled),
// does nothing.
func (t *Thread) Release() {
	if t.l1 == nil {
		return
	}
	cache.Put(t.l1)
	cache.Put(t.l2)
	cache.Put(t.l3)
	cache.Put(t.dtlb)
	cache.Put(t.stlb)
	t.l1, t.l2, t.l3, t.dtlb, t.stlb = nil, nil, nil, nil, nil
	t.lastPage, t.mruLine = noPage, noPage
	w := t.words
	w.mlp, w.sbuf = t.mlp, t.sbuf
	if t.epcDom != nil {
		w.epcRing, w.epcRef, w.epcIdx = t.epcRing, t.epcRef, t.epcIdx
	}
	wordsPool.Put(w)
	t.words, t.mlp, t.sbuf, t.epcRing, t.epcRef, t.epcIdx = nil, nil, nil, nil, nil, nil
}

// threadWords are a thread's host words beyond its cache models: the MLP
// slots, the store buffer and the EPC ring, reference bits and index.
// NewThread takes them from wordsPool and clears the part it uses, so a
// recycled set starts exactly as new words do; Release hands them back.
// A set whose thread had no EPC domain keeps the EPC words it held.
type threadWords struct {
	mlp, sbuf []uint64
	epcRing   []uint64
	epcRef    []bool
	epcIdx    map[uint64]int
}

// wordsPool holds released threads' host words, as the cache package's
// pools hold their models. It is process-wide, and the garbage collector
// may empty it.
var wordsPool sync.Pool

// getThreadWords returns a released thread's host words, or empty ones
// when the pool is empty.
func getThreadWords() *threadWords {
	if w, ok := wordsPool.Get().(*threadWords); ok {
		return w
	}
	return new(threadWords)
}

// Cycle returns the thread's current cycle (issue clock; completions may
// be outstanding — call Drain for a quiescent timestamp).
func (t *Thread) Cycle() uint64 { return t.cycle }

// SetCycle force-aligns the thread clock (used at phase barriers).
func (t *Thread) SetCycle(c uint64) {
	if c > t.cycle {
		t.cycle = c
	}
}

// Stats returns a snapshot of the thread's counters with Cycles filled in.
func (t *Thread) Stats() Stats {
	s := t.st
	s.Cycles = t.cycle
	return s
}

// issueWidth is the superscalar issue width: up to four micro-ops retire
// per cycle, so back-to-back independent memory operations cost 1/4 cycle
// of issue bandwidth each. Dependency chains still pay full latencies via
// tokens — this is what separates throughput-bound plain execution from
// the latency-bound serialization the SSB mitigation induces.
const issueWidth = 4

// issueTick consumes one issue slot and returns the current issue cycle.
func (t *Thread) issueTick() uint64 {
	t.issueAcc++
	if t.issueAcc >= issueWidth {
		t.issueAcc = 0
		t.cycle++
	}
	return t.cycle
}

// Work advances the clock by n compute cycles (instructions that are not
// memory operations: hashing, comparisons, SIMD lane work).
func (t *Thread) Work(n uint64) {
	t.cycle += n
	t.st.WorkCycles += n
}

// After returns the token for a value that becomes available n cycles
// after dep (dataflow latency of a dependent computation).
func After(dep Tok, n uint64) Tok { return dep + Tok(n) }

// maxTok returns the later of two tokens.
func maxTok(a, b Tok) Tok {
	if a > b {
		return a
	}
	return b
}

// loadGate applies the SSB store-address barrier (mitigation on) or the
// speculative-bypass misspeculation model (mitigation off) to a load's
// issue token. Shared verbatim by both engines.
func (t *Thread) loadGate(issue Tok) Tok {
	if t.Mode.Mitigation {
		if bar := Tok(t.storeBarrier); bar > issue {
			t.st.StallSSB += uint64(bar - issue)
			issue = bar
		}
	} else if Tok(t.storeBarrier) > issue {
		// Speculative execution: the load bypasses pending stores; rare
		// misspeculations flush the pipeline (Section 4.2 notes unrolling
		// also helps the plain CPU by reducing misspeculations).
		t.specCount++
		if t.specCount%64 == 0 {
			t.cycle += 20
			t.st.SpecFlush++
			issue = maxTok(issue, Tok(t.cycle))
		}
	}
	return issue
}

// Load issues a load of size bytes at b[off]. dep is the token of the
// value the *address* depends on (zero for statically known addresses).
// It returns the token at which the loaded value is available.
func (t *Thread) Load(b *mem.Buffer, off, size int64, dep Tok) Tok {
	t.checkRange(b, off, size)
	return t.loadAt(b, b.Base+uint64(off), b.Reg.Node, b.Reg.Kind == mem.EPC, b.Reg.Node != t.Node, dep)
}

// Store issues a store of size bytes at b[off]. addrDep is the token of
// the value the *address* was computed from — this is what makes a store
// "data-dependent" in the paper's sense (histogram bins, hash buckets,
// partition cursors). dataDep is the token of the stored value. The
// returned token is when the stored data is visible to a dependent load
// (store-to-load forwarding).
func (t *Thread) Store(b *mem.Buffer, off, size int64, addrDep, dataDep Tok) Tok {
	t.checkRange(b, off, size)
	return t.storeAt(b, b.Base+uint64(off), b.Reg.Node, b.Reg.Kind == mem.EPC, b.Reg.Node != t.Node, addrDep, dataDep)
}

// casHold is the line-hold latency of an atomic read-modify-write.
const casHold = 20

// CAS models an atomic read-modify-write (lock prefix): the line is
// loaded, held for ~20 cycles, and written back. The returned token is
// when the new value is globally visible. Used by latches and lock-free
// queues. Independent CAS operations to different lines still overlap in
// the memory system (line-granular locking), as on real hardware.
// CASLoad charges batches of the latch-acquire idiom built on this.
func (t *Thread) CAS(b *mem.Buffer, off int64, dep Tok) Tok {
	tok := t.Load(b, off, 8, dep)
	done := After(tok, casHold)
	t.Store(b, off, 8, dep, done)
	return done
}

// Drain advances the clock past every outstanding miss and store, and
// past the store-address barrier; it returns the quiesced cycle.
func (t *Thread) Drain() uint64 {
	m := t.cycle
	for _, c := range t.mlp {
		if c > m {
			m = c
		}
	}
	for _, c := range t.sbuf {
		if c > m {
			m = c
		}
	}
	if t.storeBarrier > m {
		m = t.storeBarrier
	}
	t.cycle = m
	return m
}

func (t *Thread) minSlot() int {
	best, bestC := 0, t.mlp[0]
	for i := 1; i < len(t.mlp); i++ {
		if t.mlp[i] < bestC {
			best, bestC = i, t.mlp[i]
		}
	}
	return best
}

func (t *Thread) checkRange(b *mem.Buffer, off, size int64) {
	if off < 0 || size < 0 || off+size > b.Size {
		panic(fmt.Sprintf("engine: access [%d,%d) out of buffer %q of size %d", off, off+size, b.Name, b.Size))
	}
}
