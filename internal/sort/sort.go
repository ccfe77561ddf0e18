// Package sort implements the batched sort operators of the query
// pipelines: a parallel run-sort + multi-way-merge ORDER BY and a
// heap-based top-k (ORDER BY ... LIMIT k).
//
// Sorting is the access-pattern counterpoint to the hash operators: its
// memory behaviour is dominated by sequential streams (in-cache run
// passes, streaming merge passes) plus compare work, so stores go to
// cursor positions known ahead of time and the SSB mitigation has little
// to bite on. This is why the paper's sort-merge join (MWAY, Fig 3)
// shows a far smaller enclave slowdown than the hash joins — the
// contrast the q5-vs-q2 bench gate asserts end to end.
//
// Simulation note (the m-way charging model, shared with join's MWAY):
// sorting is performed for real with the standard library, while the
// engine charges the access pattern of the vectorized merge network at
// cache-line granularity — log2(runLen) in-cache passes per run plus
// log2(n/runLen) streaming merge passes, then a splitter-partitioned
// multi-way merge with log2(T) compares per element. All hot loops run
// on the engine's batched bulk APIs with per-op reference
// decompositions, so results AND simulated statistics are bit-identical
// between the fast and reference engine paths (golden-tested under all
// four execution settings).
package sort

import (
	stdsort "sort"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// mergeWork is the charged compute per tuple per merge level (vectorized
// bitonic merge networks; branchless, so no mispredict costs).
const mergeWork = 3

// TupLess orders rows by sort key, breaking ties on the full tuple so
// that every sort is total and deterministic.
func TupLess(a, b uint64) bool {
	ka, kb := mem.TupleKey(a), mem.TupleKey(b)
	if ka != kb {
		return ka < kb
	}
	return a < b
}

// RunLen returns the in-cache run length for env: runs are sized so that
// a run and its ping-pong buffer together occupy half of L2 and stay
// resident across the in-run sort passes.
func RunLen(env *core.Env) int {
	runLen := int(env.Plat.L2.SizeBytes / 4 / rel.TupleBytes)
	if runLen < 64 {
		runLen = 64
	}
	return runLen
}

// ChunkSort really sorts buf[lo:hi] (by key, then tuple, via TupLess)
// and charges the timing of the m-way sort: each cache-sized run is
// sorted with log2(runLen) in-cache passes (the passes iterate
// run-by-run, so the simulated cache keeps each run resident exactly as
// the real algorithm does), followed by log2(n/runLen) streaming merge
// passes over the whole chunk, ping-ponging through tmp.
func ChunkSort(t *engine.Thread, buf, tmp *mem.U64Buf, lo, hi int, runLen int) {
	n := hi - lo
	if n <= 1 {
		return
	}
	stdsort.Slice(buf.D[lo:hi], func(i, j int) bool { return TupLess(buf.D[lo+i], buf.D[lo+j]) })
	const passBlock = 32
	var offs [passBlock]int64
	var toks [passBlock]engine.Tok
	pass := func(src, dst *mem.U64Buf, a, b int) {
		o := int64(a * 8)
		end := int64(b * 8)
		// Full-line blocks: one batched load run per block, then the
		// line stores with their per-line data dependencies as one
		// scatter (the merge network consumes a line before emitting it).
		for o+64 <= end {
			blk := int((end - o) / 64)
			if blk > passBlock {
				blk = passBlock
			}
			t.LoadRunToks(&src.Buffer, o, 64, blk, 0, toks[:blk])
			t.Work(8 * mergeWork * uint64(blk))
			for l := 0; l < blk; l++ {
				offs[l] = o + int64(l)*64
			}
			t.StoreScatter(&dst.Buffer, 64, offs[:blk], nil, toks[:blk])
			o += int64(blk) * 64
		}
		if o < end {
			tok := engine.LoadLine(t, &src.Buffer, o, 0)
			t.Work(8 * mergeWork)
			engine.StoreLine(t, &dst.Buffer, o, 0, tok)
		}
	}
	// In-cache run sorting: all passes of one run before the next run.
	for ra := lo; ra < hi; ra += runLen {
		rb := ra + runLen
		if rb > hi {
			rb = hi
		}
		src, dst := buf, tmp
		for r := 1; r < rb-ra; r <<= 1 {
			pass(src, dst, ra, rb)
			src, dst = dst, src
		}
		if src != buf {
			pass(src, buf, ra, rb) // copy back into place
		}
	}
	// Cross-run merge passes: streaming over the whole chunk.
	src, dst := buf, tmp
	levels := 0
	for r := runLen; r < n; r <<= 1 {
		pass(src, dst, lo, hi)
		src, dst = dst, src
		levels++
	}
	if levels%2 == 1 {
		pass(src, buf, lo, hi)
	}
}

// Options configures a sort run.
type Options struct {
	// Threads is the number of worker threads (Run only; RunOn uses the
	// group's).
	Threads int
	// MaxKey bounds the key domain: merge splitters are computed
	// arithmetically over [0, MaxKey), which keeps them balanced for
	// uniform keys (correctness holds for any distribution). Zero derives
	// the bound from the data in an untimed setup pass.
	MaxKey uint32
	// RunLen overrides the in-cache run length (0: RunLen(env)).
	RunLen int
	// Tmp / Out, when non-nil, are the pre-allocated ping-pong and output
	// buffers (n words each); reused across repeated runs so re-runs see
	// identical simulated addresses (benchmark repetitions, golden gates).
	Tmp *mem.U64Buf
	Out *mem.U64Buf
	// SkipCheck skips the host-side O(n) FNV fold of the output
	// (Result.Check stays zero). Callers that discard the check — MWAY,
	// whose join result carries its own check values — avoid paying host
	// time for it in benchmarked paths. Simulated numbers are unaffected
	// either way.
	SkipCheck bool
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// Result reports a completed sort.
type Result struct {
	WallCycles uint64
	Rows       int
	// Check is FNV-1a over every output row in order — the deterministic
	// value benchmarks and golden gates compare.
	Check  uint64
	Phases []exec.PhaseStats
	Stats  engine.Stats
	// Out holds the globally sorted rows.
	Out *mem.U64Buf
}

// Run sorts in[:n] under env on a fresh thread group.
func Run(env *core.Env, in *mem.U64Buf, n int, opt Options) *Result {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return RunOn(env, g, in, n, opt)
}

// RunOn sorts in[:n] on an existing thread group (pipeline stage
// composition: simulated cache/TLB state carries over from the upstream
// operator; Options.Threads is ignored). in is consumed as
// the per-thread chunk work area — after the run it holds the sorted
// per-thread chunks — and the globally sorted rows land in Out at
// deterministic offsets. Result timing and stats cover only this stage.
func RunOn(env *core.Env, g *exec.Group, in *mem.U64Buf, n int, opt Options) *Result {
	T := len(g.Threads)
	mark := g.Mark()
	reg := env.DataRegion()
	tmp := opt.Tmp
	if tmp == nil || tmp.Len() < n {
		tmp = env.Space.AllocU64("sort.tmp", n, reg)
	}
	out := opt.Out
	if out == nil || out.Len() < n {
		out = env.Space.AllocU64("sort.out", n, reg)
	}
	runLen := opt.RunLen
	if runLen <= 0 {
		runLen = RunLen(env)
	}
	maxKey := opt.MaxKey
	if maxKey == 0 {
		// Untimed setup pass (the caller knows the domain in every
		// pipeline; this fallback keeps ad-hoc sorts correct). A maximum
		// key of ^uint32(0) clamps instead of wrapping to zero — a zero
		// domain would collapse every splitter onto the last thread and
		// serialize the merge.
		for i := 0; i < n; i++ {
			if k := mem.TupleKey(in.D[i]); k >= maxKey {
				if k == ^uint32(0) {
					maxKey = k
				} else {
					maxKey = k + 1
				}
			}
		}
		if maxKey == 0 {
			maxKey = 1
		}
	}
	res := &Result{Rows: n, Out: out}

	// --- Phase: per-thread chunk sort ---
	g.Phase("Sort", func(t *engine.Thread, id int) {
		lo, hi := exec.Chunk(n, T, id)
		ChunkSort(t, in, tmp, lo, hi, runLen)
	})

	// --- Phase: multi-way merge, range-partitioned by key ---
	// Thread i merges keys in [Splitter(i), Splitter(i+1)) from every
	// chunk into out at the range's deterministic global offset; the last
	// thread's range is unbounded above (it runs to the chunk ends), so
	// keys at or past MaxKey — including ^uint32(0), which an exclusive
	// bound could never cover — are still emitted.
	g.Phase("Merge", func(t *engine.Thread, id int) {
		mergeRange(t, in, out, n, T, Splitter(maxKey, T, id), Splitter(maxKey, T, id+1), id == T-1)
	})

	if !opt.SkipCheck {
		res.Check = Checksum(out, n)
	}
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}

// Splitter returns the i-th of T arithmetic key splitters over the
// domain [0, maxKey): thread i owns keys in [Splitter(i), Splitter(i+1))
// (the last range is widened to the full key space by the callers).
func Splitter(maxKey uint32, T, i int) uint32 {
	return uint32(uint64(maxKey) * uint64(i) / uint64(T))
}

// mergeRange merges the key range [loKey, hiKey) of the T sorted chunks
// of work into out: per-chunk binary searches locate the range (charged
// as dependent node probes), the output offset is the total number of
// rows below loKey, and a loser-tree merge emits the rows at log2(T)
// compares per element. last marks the final range, whose upper bound is
// the chunk ends rather than hiKey (no exclusive bound can cover the
// maximum key).
func mergeRange(t *engine.Thread, work, out *mem.U64Buf, n, T int, loKey, hiKey uint32, last bool) {
	type cursor struct{ pos, end int }
	cursors := make([]cursor, T)
	outPos := 0
	for c := 0; c < T; c++ {
		clo, chi := exec.Chunk(n, T, c)
		d := work.D[clo:chi]
		a := clo + stdsort.Search(len(d), func(i int) bool { return mem.TupleKey(d[i]) >= loKey })
		b := chi
		if !last {
			b = clo + stdsort.Search(len(d), func(i int) bool { return mem.TupleKey(d[i]) >= hiKey })
		}
		cursors[c] = cursor{pos: a, end: b}
		t.Work(20) // binary search probes
	}
	// Output offset: total rows below loKey across chunks.
	for c := 0; c < T; c++ {
		clo, _ := exec.Chunk(n, T, c)
		outPos += cursors[c].pos - clo
	}
	// K-way merge. The host-side selection is a plain linear min-scan
	// over the T cursors (T is small and the scan is branch-predictable);
	// the *charged* cost models the real algorithm's branchless
	// vectorized loser tree at log2(T) compares per element.
	logT := 1
	for 1<<logT < T {
		logT++
	}
	for {
		best, bestVal := -1, uint64(0)
		for c := 0; c < T; c++ {
			if cursors[c].pos < cursors[c].end {
				v := work.D[cursors[c].pos]
				if best == -1 || TupLess(v, bestVal) {
					best, bestVal = c, v
				}
			}
		}
		if best == -1 {
			break
		}
		p := cursors[best].pos
		var tok engine.Tok
		if p%8 == 0 {
			tok = engine.LoadLine(t, &work.Buffer, int64(p)*8, 0)
		}
		t.Work(uint64(logT) * mergeWork)
		engine.StoreU64(t, out, outPos, work.D[p], 0, tok)
		cursors[best].pos++
		outPos++
	}
}

// Checksum folds buf[:n] into one FNV-1a value (the hash discipline of
// the pipeline check values in internal/agg).
func Checksum(buf *mem.U64Buf, n int) uint64 {
	h := fnvOffset64
	h = mix(h, uint64(n))
	for i := 0; i < n; i++ {
		h = mix(h, buf.D[i])
	}
	return h
}

// FNV-1a, shared discipline with internal/agg (not imported to keep the
// operator layer dependency-light).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64         = 1099511628211
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}
