package join

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
	"sgxbench/internal/rng"
)

// PHT is the Parallel Hash Table join (Blanas et al. [5]): all threads
// build one shared hash table over the smaller input, latching buckets,
// then probe it in parallel. It performs no partitioning, so with tables
// exceeding the LLC every bucket access is a random DRAM access — the
// behaviour Fig 4 dissects.
//
// The bucket layout follows TEEBench: one cache line per bucket with a
// small count, a latch, inline tuple slots and an overflow chain. The
// insert pattern "load count, store tuple at bucket[count]" makes the
// store address depend on a just-loaded value; under the SSB mitigation
// that load-to-store-address chain blocks all younger loads, which is why
// the build phase slows down far more (up to ~9x) than the ~3x the pure
// random-access overhead would explain (Sections 4.1-4.2).
type PHT struct{}

// NewPHT returns the PHT algorithm.
func NewPHT() *PHT { return &PHT{} }

// Name returns the paper's name for the algorithm.
func (*PHT) Name() string { return "PHT" }

// bucketBytes is the size of one bucket: two cache lines — a header line
// (latch, count, first slots) and a slot line. A probe chases the header
// line and, only when the bucket has spilled past it, the dependent slot
// line — with foreign-key build sides most buckets hold a couple of
// tuples, so the common probe is a single random access.
const bucketBytes = 128

// inlineSlots is the number of tuples stored inline before overflowing.
const inlineSlots = 8

// hdrSlots is the number of inline slots that share the header line
// (latch + count + 6 tuples); slots beyond it live on the bucket's
// second line.
const hdrSlots = 6

// phtTable is the shared hash table. Timing flows through the
// line-sized bucket buffer and the overflow arena, which hold no host
// words; the real contents live in a counting-sorted host array sized by
// the build side, not by the buckets the simulated table reserves:
// tups holds the build tuples bucket by bucket, bucket b's tuples are
// tups[start[b]:start[b+1]] in input order, and claim[i] is build tuple
// i's charged position — its inline slot when below inlineSlots, else
// inlineSlots plus its global overflow ordinal in input order. ovOrd[p]
// is the overflow ordinal of the tuple at tups[p], for the positions
// past a bucket's inline slots; it is nil when no bucket overflows.
//
// The table's contents and every insert's claim are precomputed in
// input order by preclaim (a counting sort on the host), so the timed
// build phase only issues simulated accesses, and the simulated store
// addresses are the same at every thread count.
type phtTable struct {
	bits     uint
	buckets  mem.Buffer // nBuckets x bucketBytes (counts + inline slots)
	overflow mem.Buffer // overflow entry arena (timing only)
	start    []int32    // nBuckets+1 bucket starts into tups
	tups     []uint64   // build tuples, bucket by bucket
	claim    []int32    // per build tuple: inline slot, or inlineSlots + overflow ordinal
	ovOrd    []int32    // per tups position past its bucket's inline slots: the overflow ordinal
}

func newPHTTable(env *core.Env, nBuild int) *phtTable {
	nBuckets := rng.NextPow2((nBuild + 1) / 2)
	return &phtTable{
		bits:     rng.Log2(nBuckets),
		buckets:  env.Space.Raw("pht.buckets", int64(nBuckets)*bucketBytes, env.DataRegion()),
		overflow: env.Space.Raw("pht.overflow", int64(nBuild+1)*16, env.DataRegion()),
		start:    make([]int32, nBuckets+1),
	}
}

func (h *phtTable) bucketOf(key uint32) int { return int(hashIdx(key, h.bits)) }

// preclaim counting-sorts the build input into tups and fixes each
// tuple's claim in input order: the bucket fill count gives the inline
// slot, spills past inlineSlots get a global overflow ordinal. With the
// claim order fixed by input order instead of the order in which the
// threads reach a bucket, the simulated store addresses of the build
// phase are identical whether one thread or many execute it — and
// single-threaded they match the pre-claim-era numbers exactly.
func (h *phtTable) preclaim(build *rel.Relation) {
	n := build.N()
	h.tups = make([]uint64, n)
	h.claim = make([]int32, n)
	// start[b] counts bucket b's tuples, then becomes its end.
	ov := int32(0)
	for i, tup := range build.Tup.D {
		b := h.bucketOf(mem.TupleKey(tup))
		h.claim[i] = h.start[b]
		if h.start[b] >= inlineSlots {
			h.claim[i] = inlineSlots + ov
			ov++
		}
		h.start[b]++
	}
	sum := int32(0)
	for b := range h.start[:len(h.start)-1] {
		sum += h.start[b]
		h.start[b] = sum
	}
	h.start[len(h.start)-1] = sum
	if ov > 0 {
		h.ovOrd = make([]int32, n)
	}
	// Filling backwards from each end keeps input order inside a bucket
	// and leaves start[b] at the bucket's first tuple.
	for i := n - 1; i >= 0; i-- {
		tup := build.Tup.D[i]
		b := h.bucketOf(mem.TupleKey(tup))
		h.start[b]--
		h.tups[h.start[b]] = tup
		if c := h.claim[i]; c >= inlineSlots {
			h.ovOrd[h.start[b]] = c - inlineSlots
		}
	}
}

// slotOff returns the simulated offset of inline slot cnt of the bucket
// at base: the first hdrSlots tuples share the header line, the rest live
// on the bucket's second line.
func slotOff(base int64, cnt int) int64 {
	if cnt < hdrSlots {
		return base + 8 + int64(cnt)*8
	}
	return base + 64 + int64(cnt-hdrSlots)*8
}

// overflowStores charges the arena append of one overflowing insert at
// its preclaimed global ordinal (the bucket-side chain-pointer store is
// issued by the caller). preclaim guarantees ord < nBuild and the arena
// holds nBuild+1 entries, so an out-of-range ordinal is a claim bug.
func (h *phtTable) overflowStores(t *engine.Thread, ord int, slotTok, keyTok engine.Tok) {
	off := int64(ord) * 16
	if off+16 > h.overflow.Size {
		panic("join: overflow ordinal past the preclaimed arena")
	}
	t.Store(&h.overflow, off, 8, slotTok, keyTok)
}

// insert charges build tuple i: latch the bucket, read its count, store
// the tuple at the (preclaimed) count-derived slot, bump the count.
func (h *phtTable) insert(t *engine.Thread, i int, tup uint64, keyTok engine.Tok) {
	b := h.bucketOf(mem.TupleKey(tup))
	hTok := engine.After(keyTok, hashCost)
	base := int64(b) * bucketBytes

	// Latch acquire (uncontended fast path: one CAS on the bucket line).
	latchTok := t.CAS(&h.buckets, base, hTok)
	// Count load: random access, address derived from the key's hash.
	cntTok := t.Load(&h.buckets, base, 4, latchTok)
	cnt := int(h.claim[i])
	slotTok := engine.After(cntTok, 1)
	if cnt < inlineSlots {
		// Tuple store at bucket[count]: store address depends on the
		// loaded count — the SSB-sensitive pattern. Slots beyond the
		// header line live on the bucket's second line.
		t.Store(&h.buckets, slotOff(base, cnt), 8, slotTok, keyTok)
	} else {
		// Overflow entry: append to the arena and link it.
		h.overflowStores(t, cnt-inlineSlots, slotTok, keyTok)
		t.Store(&h.buckets, base+8+int64(inlineSlots)*8, 8, slotTok, 0) // chain pointer
	}
	// Count update + latch release share the bucket line.
	t.Store(&h.buckets, base, 4, hTok, slotTok)
}

// phtBatch holds the scratch vectors of the batched build and probe
// loops. A run makes one per worker thread, and the thread's Build and
// Probe phases share it. keyToks and lineToks carry a batch's vector key
// loads; the rest are the bucket-operation batches.
type phtBatch struct {
	keyToks   []engine.Tok
	lineToks  []engine.Tok
	baseOffs  []int64
	hToks     []engine.Tok
	latchToks []engine.Tok
	cntToks   []engine.Tok
	slotToks  []engine.Tok
	sOffs     []int64
	sADeps    []engine.Tok
	sDDeps    []engine.Tok
	off0      []int64
	off1      []int64
	longDeps  []engine.Tok
	longToks  []engine.Tok
	longIdx   []int
	shortOffs []int64
	shortDeps []engine.Tok
	shortToks []engine.Tok
	shortIdx  []int
	scanToks  []engine.Tok
	bkts      []int32
}

// newPHTBatch returns the vectors for batches of u tuples (u a multiple
// of 8, one vector key load per 8 lanes), carved out of one backing
// array per element type.
func newPHTBatch(u int) *phtBatch {
	toks, offs, idx := make([]engine.Tok, 12*u+u/8), make([]int64, 5*u), make([]int, 2*u)
	tok := func() []engine.Tok { s := toks[:u:u]; toks = toks[u:]; return s }
	off := func() []int64 { s := offs[:u:u]; offs = offs[u:]; return s }
	return &phtBatch{
		keyToks: tok(), baseOffs: off(), hToks: tok(), latchToks: tok(), cntToks: tok(), slotToks: tok(),
		sOffs: off(), sADeps: tok(), sDDeps: tok(), off0: off(), off1: off(),
		longDeps: tok(), longToks: tok(), longIdx: idx[:u:u],
		shortOffs: off(), shortDeps: tok(), shortToks: tok(), shortIdx: idx[u:],
		scanToks: tok(), lineToks: toks, bkts: make([]int32, u),
	}
}

// insertBatch is the unroll + reorder build kernel over the batched
// APIs, charging build tuples [i0, i0+len(tups)): the batch's latch CAS
// + count loads are one CASLoad (each element's three micro-accesses
// share the bucket's header line), then the count-addressed tuple
// stores and the count/latch-release stores are dispatched as scatter
// groups.
func (h *phtTable) insertBatch(t *engine.Thread, i0 int, tups []uint64, keyToks []engine.Tok, sc *phtBatch) {
	u := len(tups)
	for j := 0; j < u; j++ {
		b := h.bucketOf(mem.TupleKey(tups[j]))
		sc.baseOffs[j] = int64(b) * bucketBytes
		sc.hToks[j] = engine.After(keyToks[j], hashCost)
	}
	t.CASLoad(&h.buckets, 4, sc.baseOffs[:u], sc.hToks[:u], sc.latchToks[:u], sc.cntToks[:u])
	nS := 0
	for j := 0; j < u; j++ {
		cnt := int(h.claim[i0+j])
		sc.slotToks[j] = engine.After(sc.cntToks[j], 1)
		if cnt < inlineSlots {
			sc.sOffs[nS] = slotOff(sc.baseOffs[j], cnt)
			sc.sADeps[nS] = sc.slotToks[j]
			sc.sDDeps[nS] = keyToks[j]
			nS++
		} else {
			h.overflowStores(t, cnt-inlineSlots, sc.slotToks[j], keyToks[j])
			sc.sOffs[nS] = sc.baseOffs[j] + 8 + int64(inlineSlots)*8 // chain pointer
			sc.sADeps[nS] = sc.slotToks[j]
			sc.sDDeps[nS] = 0
			nS++
		}
	}
	t.StoreScatter(&h.buckets, 8, sc.sOffs[:nS], sc.sADeps[:nS], sc.sDDeps[:nS])
	// Count updates + latch releases.
	t.StoreScatter(&h.buckets, 4, sc.baseOffs[:u], sc.hToks[:u], sc.slotToks[:u])
}

// scanBucket compares the probe tuple against bucket b's contents
// (timing of the compares and overflow-chain hops; the header/slot-line
// loads were already charged and produced scanTok).
func (h *phtTable) scanBucket(t *engine.Thread, b int, tup uint64, scanTok engine.Tok, out *outWriter) (uint64, engine.Tok) {
	key := mem.TupleKey(tup)
	var matches uint64
	first := int(h.start[b])
	for i, r := range h.tups[first:h.start[b+1]] {
		if i > 0 && i%inlineSlots == 0 {
			// Overflow chain: one dependent load per spilled entry
			// group, of the arena entry overflowStores wrote for the
			// group's first tuple.
			scanTok = t.Load(&h.overflow, int64(h.ovOrd[first+i])*16, 8, scanTok)
		}
		t.Work(1) // key compare
		if mem.TupleKey(r) == key {
			matches++
			if out != nil {
				out.append(t, mem.MakeTuple(mem.TuplePayload(tup), mem.TuplePayload(r)), scanTok)
			}
		}
	}
	return matches, scanTok
}

// probe returns the number of matches for key and appends output rows.
func (h *phtTable) probe(t *engine.Thread, tup uint64, keyTok engine.Tok, out *outWriter) (uint64, engine.Tok) {
	b := h.bucketOf(mem.TupleKey(tup))
	hTok := engine.After(keyTok, hashCost)
	base := int64(b) * bucketBytes
	// Header line, then the dependent slot line.
	hdrTok := t.Load(&h.buckets, base, 8, hTok)
	scanTok := t.Load(&h.buckets, base+64, 8, engine.After(hdrTok, 1))
	return h.scanBucket(t, b, tup, scanTok, out)
}

// probeBatch is the unroll + reorder probe kernel over the batched APIs.
// Besides grouping the key loads ahead of the bucket accesses, the
// optimized probe gates the slot-line access on the header's count: the
// header line arrives first anyway, so a bucket that fits its header
// line (the common case for foreign-key builds) costs one random access.
// Buckets that spilled past the header form one header→slot LoadChain,
// the rest one header gather; each tuple's compare loop then runs in
// batch order.
func (h *phtTable) probeBatch(t *engine.Thread, tups []uint64, keyToks []engine.Tok, sc *phtBatch, out *outWriter) uint64 {
	u := len(tups)
	nShort, nLong := 0, 0
	for j := 0; j < u; j++ {
		b := h.bucketOf(mem.TupleKey(tups[j]))
		sc.bkts[j] = int32(b)
		base := int64(b) * bucketBytes
		hTok := engine.After(keyToks[j], hashCost)
		if h.start[b+1]-h.start[b] > hdrSlots {
			sc.off0[nLong] = base
			sc.off1[nLong] = base + 64
			sc.longDeps[nLong] = hTok
			sc.longIdx[nLong] = j
			nLong++
		} else {
			sc.shortOffs[nShort] = base
			sc.shortDeps[nShort] = hTok
			sc.shortIdx[nShort] = j
			nShort++
		}
	}
	t.LoadGather(&h.buckets, 8, sc.shortOffs[:nShort], sc.shortDeps[:nShort], sc.shortToks[:nShort])
	t.LoadChain(&h.buckets, 8, sc.off0[:nLong], sc.off1[:nLong], 1, sc.longDeps[:nLong], sc.longToks[:nLong])
	for k := 0; k < nShort; k++ {
		sc.scanToks[sc.shortIdx[k]] = sc.shortToks[k]
	}
	for k := 0; k < nLong; k++ {
		sc.scanToks[sc.longIdx[k]] = sc.longToks[k]
	}
	var matches uint64
	for j := 0; j < u; j++ {
		m, _ := h.scanBucket(t, int(sc.bkts[j]), tups[j], sc.scanToks[j], out)
		matches += m
	}
	return matches
}

// Run executes the join.
func (p *PHT) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return p.RunOn(env, g, build, probe, opt)
}

// RunOn executes the join on an existing thread group (pipeline stage
// composition; see RHO.RunOn). Result timing and stats cover only this
// stage's phases. The shared-table build claims its slots in input
// order (preclaim), so results AND simulated numbers are run-to-run
// deterministic at every thread count.
func (p *PHT) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := len(g.Threads)
	mark := g.Mark()
	ht := newPHTTable(env, build.N())
	ht.preclaim(build)
	res := &Result{Algorithm: p.Name()}

	unroll := 1
	batches := make([]*phtBatch, T) // per thread, shared by Build and Probe
	if opt.Optimized {
		unroll = 8 // one vector key load per batch
		for id := range batches {
			batches[id] = newPHTBatch(unroll)
		}
	}

	bp := g.Phase("Build", func(t *engine.Thread, id int) {
		lo, hi := exec.Chunk(build.N(), T, id)
		if unroll == 1 {
			for i := lo; i < hi; i++ {
				tup, tok := engine.LoadU64(t, build.Tup, i, 0)
				ht.insert(t, i, tup, tok)
			}
			return
		}
		// Optimized build: group the key loads and hash computations of a
		// batch ahead of the count-dependent stores (Section 4.2 applied
		// to PHT, Fig 9 "PHT O"). The load group is one batched run; the
		// bucket operations go through the CASLoad/StoreScatter batch.
		sc := batches[id]
		i := lo
		for ; i+unroll <= hi; i += unroll {
			// Vector loads cover the batch's keys 8 lanes at a time.
			t.LoadRunToks(&build.Tup.Buffer, build.Tup.Off(i), 64, unroll/8, 0, sc.lineToks)
			for j := range sc.keyToks {
				sc.keyToks[j] = engine.After(sc.lineToks[j/8], 1) // lane extract
			}
			ht.insertBatch(t, i, build.Tup.D[i:i+unroll], sc.keyToks, sc)
		}
		for ; i < hi; i++ {
			tup, tok := engine.LoadU64(t, build.Tup, i, 0)
			ht.insert(t, i, tup, tok)
		}
	})
	res.BuildCycles = bp.WallCycles

	tl := make(tallies, T)
	pp := g.Phase("Probe", func(t *engine.Thread, id int) {
		lo, hi := exec.Chunk(probe.N(), T, id)
		out := tl.writer(env, id, opt)
		var local uint64
		if unroll == 1 {
			for i := lo; i < hi; i++ {
				tup, tok := engine.LoadU64(t, probe.Tup, i, 0)
				m, _ := ht.probe(t, tup, tok, out)
				local += m
			}
		} else {
			sc := batches[id]
			i := lo
			for ; i+unroll <= hi; i += unroll {
				// Vector loads cover the batch's keys 8 lanes at a time.
				t.LoadRunToks(&probe.Tup.Buffer, probe.Tup.Off(i), 64, unroll/8, 0, sc.lineToks)
				for j := range sc.keyToks {
					sc.keyToks[j] = engine.After(sc.lineToks[j/8], 1) // lane extract
				}
				local += ht.probeBatch(t, probe.Tup.D[i:i+unroll], sc.keyToks, sc, out)
			}
			for ; i < hi; i++ {
				tup, tok := engine.LoadU64(t, probe.Tup, i, 0)
				m, _ := ht.probe(t, tup, tok, out)
				local += m
			}
		}
		tl[id].matches = local
	})
	res.ProbeCycles = pp.WallCycles
	tl.fold(res, opt)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res, nil
}
