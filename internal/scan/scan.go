package scan

import (
	"encoding/binary"
	"math/bits"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
)

// vectorWork is the charged compute per 64-byte vector: one AVX-512
// load feeds two byte compares, a mask AND and a mask store.
const vectorWork = 2

// blockLines is the number of 64-byte lines charged per bulk engine call
// in the scan hot loops: one call per 2 KiB of column keeps the batched
// fast path amortized while staying well inside a thread chunk.
const blockLines = 32

// Predicate is the scan filter: lo <= value <= hi (the paper's range
// filter with lower and upper bound).
type Predicate struct {
	Lo, Hi uint8
}

// Selectivity returns the fraction of a uniform byte column the
// predicate selects.
func (p Predicate) Selectivity() float64 {
	if p.Hi < p.Lo {
		return 0
	}
	return float64(int(p.Hi)-int(p.Lo)+1) / 256
}

// Result reports a completed scan.
type Result struct {
	WallCycles uint64
	Bytes      int64 // input bytes scanned (per pass x passes)
	Matches    uint64
	Phases     []exec.PhaseStats
	// Stats aggregates engine counters over this scan's phases.
	Stats engine.Stats
	// Bits holds the packed result bit vector (bit i set = byte i
	// matched) when Options.RowIDs is false.
	Bits *mem.U64Buf
	// IDs holds the materialized row indexes when Options.RowIDs is true.
	// Each worker thread writes its matches at its chunk base, so the ids
	// form per-thread runs with gaps between them; IDRuns describes them.
	IDs *mem.U64Buf
	// IDRuns lists each thread's contiguous run of materialized row ids
	// inside IDs (RowIDs mode): downstream pipeline stages consume the
	// filter output per-thread, exactly as the threads produced it.
	IDRuns []IDRun
}

// IDRun is one thread's contiguous run of materialized row ids.
type IDRun struct {
	Start, Count int
}

// Throughput returns the paper's scan metric: input bytes per second.
func (r *Result) Throughput(env *core.Env) float64 {
	return env.Bandwidth(r.Bytes, r.WallCycles)
}

// GenColumn fills col with uniform random bytes (deterministic in seed):
// each draw is stored whole, low byte first, and a short tail takes the
// low byte of one draw per byte.
func GenColumn(col *mem.U8Buf, seed uint64) {
	r := rng.NewXorShift(rng.Mix(seed))
	i := 0
	for ; i+8 <= len(col.D); i += 8 {
		binary.LittleEndian.PutUint64(col.D[i:], r.Next())
	}
	for ; i < len(col.D); i++ {
		col.D[i] = uint8(r.Next())
	}
}

// lineMask computes the 64-bit match mask of one 64-byte line: bit j set
// when col.D[off+j] is inside [loB, hiB] (broadcast bounds). The eight
// word extractions use constant indexes into a re-sliced line so the
// compiler drops the per-word bounds checks.
func lineMask(d []uint8, off int, loB, hiB uint64) uint64 {
	ln := d[off : off+64 : off+64]
	acc := uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[0:8]), loB, hiB)))
	acc |= uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[8:16]), loB, hiB))) << 8
	acc |= uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[16:24]), loB, hiB))) << 16
	acc |= uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[24:32]), loB, hiB))) << 24
	acc |= uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[32:40]), loB, hiB))) << 32
	acc |= uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[40:48]), loB, hiB))) << 40
	acc |= uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[48:56]), loB, hiB))) << 48
	acc |= uint64(packMask(rangeMask(binary.LittleEndian.Uint64(ln[56:64]), loB, hiB))) << 56
	return acc
}

// bitVectorChunk scans col[lo:hi) (64-byte aligned lo; hi unaligned only
// in the final chunk) into the bit vector out (one bit per input byte),
// returning the match count. The hot loop is batched: one LoadLines call
// charges a whole block of sequential vector loads and one StoreRun
// charges the block's packed result words — the read-heavy, write-light
// pattern of Section 5.1 expressed through the engine's bulk APIs.
func bitVectorChunk(t *engine.Thread, col *mem.U8Buf, lo, hi int, out *mem.U64Buf, pred Predicate) uint64 {
	loB, hiB := broadcast(pred.Lo), broadcast(pred.Hi)
	var matches uint64
	nLines := (hi - lo) / 64
	for li := 0; li < nLines; {
		blk := nLines - li
		if blk > blockLines {
			blk = blockLines
		}
		base := lo + li*64
		t.LoadLines(&col.Buffer, int64(base), blk, 0)
		t.Work(vectorWork * uint64(blk))
		for l := 0; l < blk; l++ {
			acc := lineMask(col.D, base+l*64, loB, hiB)
			out.D[(base+l*64)/64] = acc
			matches += uint64(bits.OnesCount64(acc))
		}
		t.StoreRun(&out.Buffer, out.Off(base/64), 8, blk, 0, 0)
		li += blk
	}
	// Scalar tail: the final partial line (last chunk only).
	tail := lo + nLines*64
	if tail < hi {
		engine.LoadLine(t, &col.Buffer, int64(tail), 0)
		t.Work(vectorWork)
		var acc uint64
		for i := tail; i < hi; i++ {
			if col.D[i] >= pred.Lo && col.D[i] <= pred.Hi {
				acc |= 1 << uint(i-tail)
				matches++
			}
			t.Work(1)
		}
		engine.StoreU64(t, out, tail/64, acc, 0, 0)
	}
	return matches
}

// rowIDChunk scans col[lo:hi) and materializes the 64-bit row indexes of
// matching values into out[outBase...], returning the match count. Each
// match writes 8 bytes, so the write rate is 8x the selectivity — the
// knob Fig 15 turns. Row ids leave the vcompressq registers with masked
// 64-byte non-temporal vector stores, so the engine charges the output
// *lines* each block's compressed ids touch — streaming straight to DRAM
// without polluting the caches — not a scalar cached store per id (a
// block boundary inside a line re-touches it, exactly like the real
// unaligned vector store).
func rowIDChunk(t *engine.Thread, col *mem.U8Buf, lo, hi int, out *mem.U64Buf, outBase int, pred Predicate) uint64 {
	loB, hiB := broadcast(pred.Lo), broadcast(pred.Hi)
	pos := outBase
	nLines := (hi - lo) / 64
	for li := 0; li < nLines; {
		blk := nLines - li
		if blk > blockLines {
			blk = blockLines
		}
		base := lo + li*64
		t.LoadLines(&col.Buffer, int64(base), blk, 0)
		t.Work(vectorWork * uint64(blk))
		runStart := pos
		for l := 0; l < blk; l++ {
			lineOff := base + l*64
			acc := lineMask(col.D, lineOff, loB, hiB)
			if acc == 0 {
				continue
			}
			// One vcompressq per 8-lane group with any match (SWAR count
			// of nonzero mask bytes), then one emission loop over the set
			// bits — same charged work as a per-word dispatch, without the
			// per-word control flow.
			nzw := acc | acc>>1 | acc>>2 | acc>>3 | acc>>4 | acc>>5 | acc>>6 | acc>>7
			t.Work(uint64(bits.OnesCount64(nzw & broadcast(1))))
			for m := acc; m != 0; m &= m - 1 {
				out.D[pos] = uint64(lineOff + bits.TrailingZeros64(m))
				pos++
			}
		}
		if pos > runStart {
			lineLo := out.Off(runStart) &^ 63
			lineHi := (out.Off(pos) + 63) &^ 63
			if lineHi > out.Size {
				lineHi = out.Size
			}
			t.StoreLinesNT(&out.Buffer, lineLo, int((lineHi-lineLo)/64), 0, 0)
		}
		li += blk
	}
	// Scalar tail.
	for i := lo + nLines*64; i < hi; i++ {
		if col.D[i] >= pred.Lo && col.D[i] <= pred.Hi {
			engine.StoreU64(t, out, pos, uint64(i), 0, 0)
			pos++
		}
		t.Work(1)
	}
	return uint64(pos - outBase)
}

// Options configures a scan run.
type Options struct {
	Threads int
	Pred    Predicate
	// RowIDs selects index materialization instead of a bit vector.
	RowIDs bool
	// Passes repeats the scan (cache warm-up measurements, Fig 13).
	Passes int
	// Bits / IDs, when non-nil, are used as the (pre-allocated) result
	// buffers instead of allocating fresh ones — the paper assumes scan
	// result memory is pre-allocated, and reuse keeps repeated benchmark
	// runs from re-faulting fresh pages. IDs needs col.Len()+64 words,
	// Bits col.Len()/64+2.
	Bits *mem.U64Buf
	IDs  *mem.U64Buf
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

func (o Options) passes() int {
	if o.Passes < 1 {
		return 1
	}
	return o.Passes
}

// Run executes a multi-threaded scan of col under env.
func Run(env *core.Env, col *mem.U8Buf, opt Options) *Result {
	g := env.NewGroup(opt.threads(), nil)
	defer g.Release()
	return RunOn(env, g, col, opt)
}

// RunOn executes the scan on an existing thread group — the pipeline
// form: a query plan shares one group across its stages so simulated
// cache/TLB state carries over operator boundaries. Options.Threads is
// ignored (the group decides it, and each thread's socket); Result timing
// and phases cover only this stage.
func RunOn(env *core.Env, g *exec.Group, col *mem.U8Buf, opt Options) *Result {
	T := len(g.Threads)
	mark := g.Mark()
	n := col.Len()
	res := &Result{}

	var bits *mem.U64Buf
	var ids *mem.U64Buf
	if opt.RowIDs {
		// Result memory is pre-allocated, as in the paper ("we assume
		// that the memory for the scan result is pre-allocated").
		if ids = opt.IDs; ids == nil {
			ids = env.Space.AllocU64("scan.ids", n+64, env.DataRegion())
		}
		res.IDs = ids
	} else {
		if bits = opt.Bits; bits == nil {
			bits = env.Space.AllocU64("scan.bits", n/64+2, env.DataRegion())
		}
		res.Bits = bits
	}

	counts := make([]uint64, T)
	for pass := 0; pass < opt.passes(); pass++ {
		g.Phase("Scan", func(t *engine.Thread, id int) {
			lo, hi := chunkAligned(n, T, id)
			if opt.RowIDs {
				counts[id] = rowIDChunk(t, col, lo, hi, ids, lo, opt.Pred)
			} else {
				counts[id] = bitVectorChunk(t, col, lo, hi, bits, opt.Pred)
			}
		})
	}
	for _, c := range counts {
		res.Matches += c
	}
	if opt.RowIDs {
		res.IDRuns = make([]IDRun, T)
		for id := range counts {
			lo, _ := chunkAligned(n, T, id)
			res.IDRuns[id] = IDRun{Start: lo, Count: int(counts[id])}
		}
	}
	res.Bytes = int64(n) * int64(opt.passes())
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}

// chunkAligned splits n bytes over workers at 64-byte boundaries so that
// vector loads never straddle two threads' ranges.
func chunkAligned(n, workers, id int) (int, int) {
	per := (n / workers) &^ 63
	lo := id * per
	hi := lo + per
	if id == workers-1 {
		hi = n
	}
	return lo, hi
}

// ReferenceCount is the oracle: a plain scalar count of matching bytes.
func ReferenceCount(col *mem.U8Buf, pred Predicate) uint64 {
	var c uint64
	for _, v := range col.D {
		if v >= pred.Lo && v <= pred.Hi {
			c++
		}
	}
	return c
}
