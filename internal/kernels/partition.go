package kernels

import (
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
)

// This file holds the half of radix partitioning that is not a per-tuple
// loop, shared by every partitioning operator (RHO, GRACE and both
// group-bys): the cursor derivation of each pass kind, the pass-bit
// split, the drain of EPC-resident inputs into untrusted staging, and the
// two-phase pass that runs them. Histogram and Scatter — or an
// operator's own loops of the same shape — are the per-tuple half.

// CoopCursors is the cooperative prefix sum of Kim et al.'s parallel
// radix partitioning, run by thread id of threads. hist holds one
// histogram row of fan = len(start)-1 counters per thread (hist[tt*fan+p]);
// the thread derives its own cursor column cur[id*fan+p] — per partition,
// one strided gather of every thread's count, then the thread's own
// cursor store — so the scatters that follow never share a cursor.
// Thread 0 records the partition starts in start[0:fan+1].
func CoopCursors(t *engine.Thread, hist, cur *mem.U32Buf, threads, id int, start []int) {
	fan := len(start) - 1
	var buf [16]int64 // keeps the gather offsets off the heap
	offs := buf[:]
	if threads > len(buf) {
		offs = make([]int64, threads)
	}
	offs = offs[:threads]
	base := 0
	for p := 0; p < fan; p++ {
		for tt := range offs {
			offs[tt] = hist.Off(tt*fan + p)
		}
		t.LoadGather(&hist.Buffer, 4, offs, nil, nil)
		cum := base
		for tt := 0; tt < threads; tt++ {
			if tt == id {
				engine.StoreU32(t, cur, id*fan+p, uint32(cum), 0, 0)
			}
			cum += int(hist.D[tt*fan+p])
		}
		if id == 0 {
			start[p] = base
		}
		base = cum
	}
	if id == 0 {
		start[fan] = base
	}
}

// LocalCursors is a refining pass's prefix sum over one partition whose
// elements begin at lo: one sequential read of its histogram row
// hist[base:base+len(start)], the cursor writes cur[base+j], and one
// sequential store run of the cursor row. start[j] receives
// sub-partition j's first element.
func LocalCursors(t *engine.Thread, hist, cur *mem.U32Buf, base, lo int, start []int) {
	fan := len(start)
	tok := t.LoadRun(&hist.Buffer, hist.Off(base), 4, fan, 0)
	cum := uint32(lo)
	for j := range start {
		v := hist.D[base+j]
		cur.D[base+j] = cum
		start[j] = int(cum)
		cum += v
	}
	t.StoreRun(&cur.Buffer, cur.Off(base), 4, fan, 0, engine.After(tok, 1))
}

// SplitBits splits total radix bits into passes of at most per bits,
// full passes first; total 0 yields no pass.
func SplitBits(total, per uint) []uint {
	if per == 0 {
		panic("kernels: SplitBits needs per > 0")
	}
	var passes []uint
	for total > 0 {
		b := min(total, per)
		passes = append(passes, b)
		total -= b
	}
	return passes
}

// Drain copies src[lo:hi] to dst[at:at+hi-lo] the way inputs leave the
// paged EPC for untrusted staging: one sequential read run, then
// sequential non-temporal line stores, so every source page is touched
// once however many partitioning passes follow.
func Drain(t *engine.Thread, src *mem.U64Buf, lo, hi int, dst *mem.U64Buf, at int) {
	if hi <= lo {
		return
	}
	tok := t.LoadRun(&src.Buffer, src.Off(lo), 8, hi-lo, 0)
	copy(dst.D[at:at+hi-lo], src.D[lo:hi])
	lines := int((int64(hi-lo)*8 + 63) / 64)
	t.StoreLinesNT(&dst.Buffer, dst.Off(at), lines, 0, tok)
}

// RadixPass runs one radix-partitioning pass on g as two barrier phases —
// histName (histograms), then copyName (cursors, then the scatter) — and
// returns the new level's partition starts. prev holds the current
// level's starts.
//
// A level of one partition, prev = {0, n}, is split cooperatively: every
// thread histograms and scatters its exec.Chunk of [0, n) against its own
// row of fan counters (hist and cur hold one row per thread), with
// cursors from CoopCursors. A level of several partitions is refined
// partition by partition, round-robin over the threads, each partition
// against its own row (hist and cur hold one row per partition), with
// cursors from LocalCursors.
//
// histogram and scatter are the pass's per-tuple loops: they run thread
// id over elements [lo, hi) against the counter row starting at base.
func RadixPass(g *exec.Group, histName, copyName string, prev []int, fan int, hist, cur *mem.U32Buf,
	histogram, scatter func(t *engine.Thread, id, lo, hi, base int)) []int {
	T := len(g.Threads)
	P := len(prev) - 1
	if P == 1 {
		n := prev[1]
		start := make([]int, fan+1)
		g.Phase(histName, func(t *engine.Thread, id int) {
			lo, hi := exec.Chunk(n, T, id)
			histogram(t, id, lo, hi, id*fan)
		})
		g.Phase(copyName, func(t *engine.Thread, id int) {
			CoopCursors(t, hist, cur, T, id, start)
			lo, hi := exec.Chunk(n, T, id)
			scatter(t, id, lo, hi, id*fan)
		})
		return start
	}
	start := make([]int, P*fan+1)
	g.Phase(histName, func(t *engine.Thread, id int) {
		for p := id; p < P; p += T {
			histogram(t, id, prev[p], prev[p+1], p*fan)
		}
	})
	g.Phase(copyName, func(t *engine.Thread, id int) {
		for p := id; p < P; p += T {
			LocalCursors(t, hist, cur, p*fan, prev[p], start[p*fan:(p+1)*fan])
			scatter(t, id, prev[p], prev[p+1], p*fan)
		}
	})
	start[P*fan] = prev[P]
	return start
}
