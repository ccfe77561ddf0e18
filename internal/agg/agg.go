// Package agg implements the aggregation operator of the query
// pipelines: a partitioned hash group-by with COUNT/SUM/MIN/MAX
// aggregates over the paper's 8-byte <key, payload> tuples.
//
// The operator is structured like the paper's radix joins — barrier
// phases on an exec.Group — because group-by shares their
// micro-architectural profile: a histogram pass (data-dependent
// read-modify-writes), a partition scatter (dependent cursor
// load/stores), and an in-cache build whose hash-table updates are the
// same hash-derived random accesses the SSB mitigation serializes inside
// enclaves. All hot loops run on the engine's batched bulk APIs
// (LoadRunToks, LoadGather, RMWScatter, StoreScatter, StoreRun); in
// reference mode every call decomposes into the per-op sequence, and the
// golden tests assert bit-identical simulated statistics between both
// engine paths under all four execution settings.
//
// Group results land in a flat output array at deterministic per-
// partition offsets, so multi-threaded runs are reproducible enough for
// exact golden-stats gating (threads own partitions round-robin, as in
// RHO's join phase).
package agg

import (
	"fmt"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
)

// Sel selects which 32-bit half of a tuple is the group key; the other
// half is the aggregated value. Join outputs pack <probe payload, build
// payload>, so aggregating a join result by the dimension attribute is
// ByPayload; aggregating a fact table by its foreign key is ByKey.
type Sel int

const (
	// ByKey groups on the tuple key and aggregates the payload.
	ByKey Sel = iota
	// ByPayload groups on the tuple payload and aggregates the key.
	ByPayload
)

// Group returns the group key of a tuple under the selector.
func (s Sel) Group(tup uint64) uint32 {
	if s == ByPayload {
		return mem.TuplePayload(tup)
	}
	return mem.TupleKey(tup)
}

// Value returns the aggregated value of a tuple under the selector.
func (s Sel) Value(tup uint64) uint32 {
	if s == ByPayload {
		return mem.TupleKey(tup)
	}
	return mem.TuplePayload(tup)
}

// Input is one contiguous run of input tuples. Pipelines hand the
// operator several segments (e.g. the per-thread materialized outputs of
// a join) that are aggregated as one logical table.
type Input struct {
	Tup *mem.U64Buf
	N   int
}

// EntryWords is the output entry width: key, count, sum, min|max<<32.
const EntryWords = 4

// EntryBytes is the byte size of one group entry (half a cache line).
const EntryBytes = EntryWords * 8

// hashCost is the dataflow latency from key to hash/bucket index.
const hashCost = 2

// aggUnroll is the batch width of the unrolled kernels: one vector
// (line-granular) load covers 8 tuples.
const aggUnroll = 8

// Options configures a group-by run.
type Options struct {
	// Threads is the number of worker threads (Run only; RunOn uses the
	// group's).
	Threads int
	// Sel picks the group-key half of the tuple (default ByKey).
	Sel Sel
	// Groups is the expected number of distinct groups, used to size the
	// radix partitions (0: assume every row is its own group).
	Groups int
	// Out, when non-nil, is the pre-allocated output entry array
	// (EntryWords per input row, worst case); Parts the pre-allocated
	// partition intermediate (one word per row), which must not alias an
	// input. Reused across repeated benchmark runs so re-runs see
	// identical simulated addresses. A supplied buffer shorter than the
	// input needs panics before the first phase; SpillRunOn instead
	// ignores a short Parts (it lends only host words there).
	Out   *mem.U64Buf
	Parts *mem.U64Buf
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// Result reports a completed group-by.
type Result struct {
	WallCycles uint64
	Rows       int // input rows aggregated
	Groups     int // distinct groups found
	// Check is an FNV-1a checksum over the emitted group entries in
	// partition order — the deterministic equivalence value benchmarks
	// and golden gates compare.
	Check  uint64
	Phases []exec.PhaseStats
	Stats  engine.Stats
	// Out holds the group entries: partition p's groups occupy entry
	// slots [PartStart[p], PartStart[p]+PartGroups[p]), each EntryWords
	// words: key, count, sum, min|max<<32.
	Out        *mem.U64Buf
	PartStart  []int
	PartGroups []int
}

// forSegments calls f for every segment sub-range covered by the global
// row range [lo, hi) of the concatenated inputs.
func forSegments(ins []Input, lo, hi int, f func(seg Input, sLo, sHi int)) {
	base := 0
	for _, in := range ins {
		sLo, sHi := lo-base, hi-base
		if sLo < 0 {
			sLo = 0
		}
		if sHi > in.N {
			sHi = in.N
		}
		if sLo < sHi {
			f(in, sLo, sHi)
		}
		base += in.N
	}
}

// Run executes the group-by over the concatenated inputs under env.
func Run(env *core.Env, ins []Input, opt Options) *Result {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return RunOn(env, g, ins, opt)
}

// RunOn executes the group-by on an existing thread group (pipeline
// stage composition: simulated cache/TLB state carries over from the
// upstream operator). Options.Threads is ignored.
func RunOn(env *core.Env, g *exec.Group, ins []Input, opt Options) *Result {
	T := len(g.Threads)
	mark := g.Mark()
	n, groups := sizes(ins, opt.Groups)
	mustHold("RunOn", "Parts", opt.Parts, n, n)
	mustHold("RunOn", "Out", opt.Out, EntryWords*n, n)
	// Cache-sized partitions: the expected per-partition group table
	// meets the L2 target, as RHO's partitions do.
	pBits := kernels.PartitionBits(int64(groups)*EntryBytes, env.L2Target(), 1, 12)
	P := 1 << pBits
	reg := env.DataRegion()

	parts := opt.Parts
	if parts == nil {
		parts = env.Space.AllocU64("agg.parts", max(n, 1), reg)
	}
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), reg)
	}
	hist := env.Space.AllocU32("agg.hist", T*P, reg)
	cur := env.Space.AllocU32("agg.cur", T*P, reg)

	// --- Phases 1 and 2: one cooperative radix pass ---
	start := radixPass(g, "Agg.Hist", "Agg.Part", []int{0, n}, ins, hist, cur, parts, opt.Sel, 0, pBits)

	// --- Phase 3: per-partition in-cache aggregation + emission ---
	hw := getHostWords()
	defer putHostWords(hw)
	return aggregate(env, g, mark, hw, n, groups, parts, out, start, opt.Sel, pBits)
}

// mustHold panics, before any phase runs, when the caller-supplied
// buffer b (nil: the operator allocates its own) is shorter than the
// words the input's rows need, in host words or in simulated bytes.
func mustHold(op, field string, b *mem.U64Buf, words, rows int) {
	if b != nil && (b.Len() < words || b.Size < int64(words)*8) {
		panic(fmt.Sprintf("agg: %s Options.%s %q holds %d words (%d bytes), %d input rows need %d",
			op, field, b.Name, b.Len(), b.Size, rows, words))
	}
}

// sizes returns the total row count of ins and the expected group count
// that sizes the partitions: groups clamped to [1, n], 0 meaning n.
func sizes(ins []Input, groups int) (n, hint int) {
	for _, in := range ins {
		n += in.N
	}
	if groups <= 0 || groups > n {
		groups = n
	}
	return n, max(groups, 1)
}

// radixPass runs one hash-digit pass (kernels.RadixPass) over the
// concatenated inputs src, scattering into dst.
func radixPass(g *exec.Group, histName, copyName string, prev []int, src []Input, hist, cur *mem.U32Buf, dst *mem.U64Buf, sel Sel, shift, bits uint) []int {
	return kernels.RadixPass(g, histName, copyName, prev, 1<<bits, hist, cur,
		func(t *engine.Thread, id, lo, hi, base int) {
			forSegments(src, lo, hi, func(seg Input, sLo, sHi int) {
				histSeg(t, seg.Tup, sLo, sHi, hist, base, sel, shift, bits)
			})
		},
		func(t *engine.Thread, id, lo, hi, base int) {
			forSegments(src, lo, hi, func(seg Input, sLo, sHi int) {
				scatterSeg(t, seg.Tup, sLo, sHi, dst, cur, base, sel, shift, bits)
			})
		})
}

// aggregate is the last phase shared by RunOn and SpillRunOn: Agg.Build
// aggregates each partition of parts (first rows in start) in cache,
// round-robin over the threads, and emits its groups to out at the
// partition's start slot; it then closes the stage's Result. groups is
// the expected group count: a worker's host arena starts at twice a
// partition's share of it (at least 16 entries) and grows on demand.
// The workers' host words come from hw and go back to it, grown.
func aggregate(env *core.Env, g *exec.Group, mark exec.Mark, hw *hostWords, n, groups int, parts, out *mem.U64Buf, start []int, sel Sel, pBits uint) *Result {
	T := len(g.Threads)
	P := len(start) - 1
	res := &Result{Rows: n, Out: out, PartStart: start, PartGroups: make([]int, P)}
	maxPart := 0
	for p := 0; p < P; p++ {
		maxPart = max(maxPart, start[p+1]-start[p])
	}
	perPart := max(2*((groups+P-1)/P), 16)
	workers := make([]worker, T)
	hw.fit(T)
	for i := range workers {
		workers[i] = newWorker(env, maxPart, perPart, hw.heads[i], hw.ents[i])
	}
	g.Phase("Agg.Build", func(t *engine.Thread, id int) {
		w := &workers[id]
		for p := id; p < P; p += T {
			nG := w.aggregatePartition(t, parts, start[p], start[p+1], sel, pBits)
			w.emit(t, out, start[p], nG)
			res.PartGroups[p] = nG
		}
	})
	for i := range workers {
		hw.heads[i], hw.ents[i] = workers[i].buckets.D, workers[i].ents.D
	}

	for _, gp := range res.PartGroups {
		res.Groups += gp
	}
	res.Check = checksum(out, res.PartStart, res.PartGroups)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}

// checksum is FNV-1a over the emitted entries in partition order.
func checksum(out *mem.U64Buf, start, groups []int) uint64 {
	h := rng.FNVOffset64
	for p, nG := range groups {
		for g := 0; g < nG; g++ {
			e := (start[p] + g) * EntryWords
			h = rng.FNVMix(h, out.D[e])
			h = rng.FNVMix(h, out.D[e+1])
			h = rng.FNVMix(h, out.D[e+2])
			h = rng.FNVMix(h, out.D[e+3])
		}
	}
	return h
}

// GroupAgg is the aggregate state of one group (oracle representation).
type GroupAgg struct {
	Count, Sum uint64
	Min, Max   uint32
}

// Reference computes the group aggregates with a plain Go map,
// independent of any simulated machinery. Used as the test oracle.
func Reference(ins []Input, sel Sel) map[uint32]GroupAgg {
	m := make(map[uint32]GroupAgg)
	for _, in := range ins {
		for i := 0; i < in.N; i++ {
			tup := in.Tup.D[i]
			k, v := sel.Group(tup), sel.Value(tup)
			a, ok := m[k]
			if !ok {
				a = GroupAgg{Min: v, Max: v}
			} else {
				if v < a.Min {
					a.Min = v
				}
				if v > a.Max {
					a.Max = v
				}
			}
			a.Count++
			a.Sum += uint64(v)
			m[k] = a
		}
	}
	return m
}
