package sort

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
)

// Heap-based top-k: ORDER BY key LIMIT k without sorting the input.
// Every thread streams its chunk once (batched sequential loads) against
// a size-k binary max-heap of the smallest rows seen so far; most rows
// fail the register-cached threshold compare and cost one work cycle,
// and the occasional heap replacement walks the log2(k) root path whose
// top levels share one or two cache lines — the engine's MRU line memo
// and L1 absorb them, which is what keeps top-k in the sequential-stream
// cost regime rather than the random-access one.

// TopKOptions configures a top-k run.
type TopKOptions struct {
	// Threads is the number of worker threads (TopK only; TopKOn uses the
	// group's).
	Threads int
	// RunLen overrides the in-cache run length of the final candidate
	// sort (0: RunLen(env)).
	RunLen int
	// Heap / Tmp (T*k words each) and Out (k words), when non-nil, are
	// the pre-allocated per-thread heap area, final-sort ping-pong and
	// result buffers; reused across repeated runs so re-runs see
	// identical simulated addresses.
	Heap *mem.U64Buf
	Tmp  *mem.U64Buf
	Out  *mem.U64Buf
}

func (o TopKOptions) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// TopKResult reports a completed top-k.
type TopKResult struct {
	WallCycles uint64
	// K is the number of rows emitted: min(k, n), in ascending TupLess
	// order at the front of Out.
	K int
	// Check is FNV-1a over the emitted rows in order.
	Check  uint64
	Phases []exec.PhaseStats
	Stats  engine.Stats
	Out    *mem.U64Buf
}

// TopK selects the k smallest rows of in[:n] under env on a fresh group.
func TopK(env *core.Env, in *mem.U64Buf, n, k int, opt TopKOptions) *TopKResult {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return TopKOn(env, g, in, n, k, opt)
}

// topkBlock is the number of rows loaded per bulk engine call in the
// scan loop (one call per 2 KiB of input, the scan hot-loop idiom).
const topkBlock = 256

// TopKOn selects the k smallest rows (by TupLess: key, then full tuple)
// of in[:n] on an existing thread group and emits them in ascending
// order into Out. Phase structure: a per-thread streaming heap scan,
// then a single-threaded candidate merge (sort of the <= T*k survivors
// with the in-cache run-sort, emission of the first k). Deterministic at
// any thread count; bit-identical across engine paths.
func TopKOn(env *core.Env, g *exec.Group, in *mem.U64Buf, n, k int, opt TopKOptions) *TopKResult {
	T := len(g.Threads)
	mark := g.Mark()
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	reg := env.DataRegion()
	heap := opt.Heap
	if heap == nil || heap.Len() < T*k {
		heap = env.Space.AllocU64("topk.heap", max(T*k, 1), reg)
	}
	tmp := opt.Tmp
	if tmp == nil || tmp.Len() < T*k {
		tmp = env.Space.AllocU64("topk.tmp", max(T*k, 1), reg)
	}
	out := opt.Out
	if out == nil || out.Len() < k {
		out = env.Space.AllocU64("topk.out", max(k, 1), reg)
	}
	runLen := opt.RunLen
	if runLen <= 0 {
		runLen = RunLen(env)
	}
	res := &TopKResult{Out: out}

	// --- Phase: streaming heap scan, one heap region per thread ---
	sizes := make([]int, T)
	g.Phase("TopK.Scan", func(t *engine.Thread, id int) {
		if k == 0 {
			return
		}
		lo, hi := exec.Chunk(n, T, id)
		h := newHeapRegion(heap, id*k, k)
		var toks [topkBlock]engine.Tok
		for pos := lo; pos < hi; {
			blk := hi - pos
			if blk > topkBlock {
				blk = topkBlock
			}
			t.LoadRunToks(&in.Buffer, in.Off(pos), 8, blk, 0, toks[:blk])
			for j := 0; j < blk; j++ {
				h.offer(t, in.D[pos+j], toks[j])
			}
			pos += blk
		}
		sizes[id] = h.size
	})

	// --- Phase: candidate merge (thread 0) ---
	// Each chunk contributed at most its k smallest rows, so the global
	// top-k is contained in the <= T*k candidates: compact them, sort
	// them in cache, emit the first k.
	g.Phase("TopK.Merge", func(t *engine.Thread, id int) {
		if id != 0 || k == 0 {
			return
		}
		total := sizes[0]
		for c := 1; c < T; c++ {
			sz := sizes[c]
			if sz == 0 {
				continue
			}
			// Compact region c to the candidate prefix: one sequential
			// read run, one sequential write run.
			tok := t.LoadRun(&heap.Buffer, heap.Off(c*k), 8, sz, 0)
			copy(heap.D[total:total+sz], heap.D[c*k:c*k+sz])
			t.StoreRun(&heap.Buffer, heap.Off(total), 8, sz, 0, tok)
			total += sz
		}
		ChunkSort(t, heap, tmp, 0, total, runLen)
		kOut := min(k, total)
		tok := t.LoadRun(&heap.Buffer, 0, 8, kOut, 0)
		copy(out.D[:kOut], heap.D[:kOut])
		t.StoreRun(&out.Buffer, 0, 8, kOut, 0, tok)
		res.K = kOut
	})

	res.Check = Checksum(out, res.K)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}

// heapRegion is a size-capped binary max-heap (by TupLess) living in a
// thread's slice of the shared heap buffer. The root holds the largest
// kept row — the admission threshold, cached in a register between
// mutations so a failing offer charges one compare cycle and no memory
// access.
type heapRegion struct {
	buf  *mem.U64Buf
	base int
	cap  int
	size int
	root uint64 // register-cached threshold (valid once size == cap)
}

func newHeapRegion(buf *mem.U64Buf, base, cap int) *heapRegion {
	return &heapRegion{buf: buf, base: base, cap: cap}
}

// offer considers one streamed row; tok is its load token (the address
// dependencies of the heap stores derive from the compared value).
func (h *heapRegion) offer(t *engine.Thread, v uint64, tok engine.Tok) {
	t.Work(1) // threshold compare against the register-cached root
	if h.size == h.cap {
		if !TupLess(v, h.root) {
			return
		}
		h.replaceRoot(t, v, tok)
		return
	}
	// Fill phase: append at the next leaf, sift up.
	i := h.size
	h.size++
	engine.StoreU64(t, h.buf, h.base+i, v, 0, engine.After(tok, 1))
	for i > 0 {
		p := (i - 1) / 2
		pv, ptok := engine.LoadU64(t, h.buf, h.base+p, 0)
		t.Work(1)
		if !TupLess(pv, h.buf.D[h.base+i]) {
			break
		}
		// Swap child and parent (two stores on the sift path).
		cv := h.buf.D[h.base+i]
		engine.StoreU64(t, h.buf, h.base+i, pv, 0, engine.After(ptok, 1))
		engine.StoreU64(t, h.buf, h.base+p, cv, 0, engine.After(ptok, 1))
		i = p
	}
	h.root = h.buf.D[h.base]
}

// replaceRoot overwrites the root with v and sifts it down the log2(k)
// root path; the first levels share the root's cache line, so the MRU
// memo charges them as L1 hits.
func (h *heapRegion) replaceRoot(t *engine.Thread, v uint64, tok engine.Tok) {
	i := 0
	engine.StoreU64(t, h.buf, h.base, v, 0, engine.After(tok, 1))
	for {
		l, r := 2*i+1, 2*i+2
		if l >= h.size {
			break
		}
		c := l
		lv, ltok := engine.LoadU64(t, h.buf, h.base+l, 0)
		cv, ctok := lv, ltok
		if r < h.size {
			rv, rtok := engine.LoadU64(t, h.buf, h.base+r, 0)
			t.Work(1)
			if TupLess(lv, rv) {
				c, cv, ctok = r, rv, rtok
			}
		}
		t.Work(1)
		if !TupLess(h.buf.D[h.base+i], cv) {
			break
		}
		// Swap the larger child up.
		pv := h.buf.D[h.base+i]
		engine.StoreU64(t, h.buf, h.base+i, cv, 0, engine.After(ctok, 1))
		engine.StoreU64(t, h.buf, h.base+c, pv, 0, engine.After(ctok, 1))
		i = c
	}
	h.root = h.buf.D[h.base]
}
