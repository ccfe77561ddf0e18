package kernels

import (
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
)

// ScatterConfig configures a radix partition copy (the paper's "Copy"
// phases in Fig 6).
type ScatterConfig struct {
	Shift uint
	Bits  uint
	// Unroll is the write-combining copy's load group: tuples loaded per
	// batch (values below 1 mean 1). The scalar copy ignores it.
	Unroll int
	// WC, when non-nil, selects software write-combining: tuples stage
	// into a per-partition cache-line buffer (one line per partition
	// inside this arena) and reach the partition as full 64-byte stores,
	// with the partition cursor maintained at flush granularity. This is
	// the classic radix-copy optimization of the Kim/Balkesen lineage
	// that TEEBench's RHO uses: the scattered stream becomes
	// line-granular, and the cursor read-modify-write leaves the
	// per-tuple path. The arena needs 8 words (one line) per partition.
	// Nil selects the scalar copy.
	WC *mem.U64Buf
	// Scratch is the calling thread's host working memory for the
	// write-combining copy (nil: one is allocated for the call).
	Scratch *Scratch
}

// Scatter copies tuples data[lo:hi] to their partitions in out, advancing
// the per-partition write cursors cur[curBase+p]. Cursor values are byte
// element indexes into out. This is the copy phase of radix partitioning:
// the destination address of every store is derived from the just-loaded
// key via the cursor — a dependent load/store pattern the paper shows can
// be improved but not fully cured by unrolling (Section 4.2, Fig 6).
func Scatter(t *engine.Thread, data *mem.U64Buf, lo, hi int, out *mem.U64Buf, cur *mem.U32Buf, curBase int, cfg ScatterConfig) {
	if cfg.WC != nil {
		scatterWC(t, data, lo, hi, out, cur, curBase, cfg)
		return
	}
	scatterScalar(t, data, lo, hi, out, cur, curBase, cfg)
}

func scatterScalar(t *engine.Thread, data *mem.U64Buf, lo, hi int, out *mem.U64Buf, cur *mem.U32Buf, curBase int, cfg ScatterConfig) {
	mask := uint32(1)<<cfg.Bits - 1
	for i := lo; i < hi; i++ {
		tup, tok := engine.LoadU64(t, data, i, 0)
		p := int((mem.TupleKey(tup) >> cfg.Shift) & mask)
		pTok := engine.After(tok, keyCompute)
		pos, posTok := engine.LoadU32(t, cur, curBase+p, pTok)
		// The tuple store's address comes from the cursor load.
		engine.StoreU64(t, out, int(pos), tup, posTok, tok)
		engine.StoreU32(t, cur, curBase+p, pos+1, pTok, engine.After(posTok, 1))
	}
}

// wcLine is the tuple capacity of one write-combining buffer line.
const wcLine = 8

// scatterWC is the software write-combining copy: each tuple is staged
// into its partition's line in the WC arena (a data-dependent store, but
// onto a small L1-resident buffer), and whenever a partition's staging
// line reaches an output-line boundary it is flushed with one 64-byte
// store. The first flush of a partition is shortened so that all later
// flushes are line-aligned, as real SWWC implementations do. Cursors are
// read and written once per flush, not once per tuple. Real tuple
// movement is unchanged — values go directly to out — only the charged
// access pattern differs.
func scatterWC(t *engine.Thread, data *mem.U64Buf, lo, hi int, out *mem.U64Buf, cur *mem.U32Buf, curBase int, cfg ScatterConfig) {
	u := max(cfg.Unroll, 1)
	mask := uint32(1)<<cfg.Bits - 1
	nPart := 1 << cfg.Bits
	sc := cfg.Scratch.orNew()
	sc.off, sc.dep, sc.tok = fit(sc.off, u), fit(sc.dep, u), fit(sc.tok, u)
	sc.line = fit(sc.line, (u+AVXLanes-1)/AVXLanes)
	wcOffs, pToks, tToks, lineToks := sc.off, sc.dep, sc.tok, sc.line
	// staged[p] counts tuples in p's WC line; flushAt[p] is the fill
	// level that completes the current (possibly shortened) line;
	// wcTok[p] is written before any flush of p reads it.
	sc.staged, sc.flushAt, sc.wcTok = fit(sc.staged, nPart), fit(sc.flushAt, nPart), fit(sc.wcTok, nPart)
	staged, flushAt, wcTok := sc.staged, sc.flushAt, sc.wcTok
	clear(staged)
	for p := 0; p < nPart; p++ {
		flushAt[p] = -1 // computed on first touch from the cursor phase
	}

	flushPart := func(p int) {
		// Cursor read-modify-write at flush granularity, then the full
		// line leaves with a non-temporal store (movntdq) whose address
		// derives from the cursor value — partition output streams to
		// DRAM without polluting the caches, as in real SWWC radix
		// copies.
		pos := cur.D[curBase+p]
		posTok := t.Load(&cur.Buffer, cur.Off(curBase+p), 4, 0)
		t.Store(&cur.Buffer, cur.Off(curBase+p), 4, 0, engine.After(posTok, 1))
		cur.D[curBase+p] = pos + uint32(staged[p])
		lineOff := (out.Off(int(pos)) + int64(staged[p])*8 - 1) &^ 63
		t.StoreLinesNT(&out.Buffer, lineOff, 1, posTok, wcTok[p])
		staged[p] = 0
		flushAt[p] = wcLine
	}

	i := lo
	for ; i < hi; i += u {
		n := hi - i
		if n > u {
			n = u
		}
		// Load group — one vector (line-granular) load per 8 tuples, as
		// the AVX histogram charges its key loads — then the staging
		// stores: addresses depend on the just-computed partition, data
		// on the loaded tuples. A partition whose line fills mid-batch
		// flushes in place — the pending staging stores are dispatched
		// first so the charged order stays stage…stage, flush, stage….
		if n == u && n%AVXLanes == 0 {
			t.LoadRunToks(&data.Buffer, data.Off(i), 64, n/AVXLanes, 0, lineToks)
			for j := 0; j < n; j++ {
				tToks[j] = engine.After(lineToks[j/AVXLanes], 1) // lane extract
			}
		} else {
			t.LoadRunToks(&data.Buffer, data.Off(i), 8, n, 0, tToks[:n])
		}
		segStart := 0
		for j := 0; j < n; j++ {
			tup := data.D[i+j]
			p := int((mem.TupleKey(tup) >> cfg.Shift) & mask)
			pToks[j] = engine.After(tToks[j], keyCompute)
			if flushAt[p] < 0 {
				// First tuple for p: align the first flush to the output
				// line boundary the partition cursor sits in.
				flushAt[p] = wcLine - int(cur.D[curBase+p])%wcLine
			}
			wcOffs[j] = int64(p)*64 + int64(staged[p])*8
			wcTok[p] = tToks[j]
			pos := cur.D[curBase+p] + uint32(staged[p])
			out.D[pos] = tup
			if staged[p]++; staged[p] == flushAt[p] {
				t.StoreScatter(&cfg.WC.Buffer, 8, wcOffs[segStart:j+1], pToks[segStart:j+1], tToks[segStart:j+1])
				segStart = j + 1
				flushPart(p)
			}
		}
		if segStart < n {
			t.StoreScatter(&cfg.WC.Buffer, 8, wcOffs[segStart:n], pToks[segStart:n], tToks[segStart:n])
		}
	}
	// Drain: partially filled lines go out with one store each.
	for p := 0; p < nPart; p++ {
		if staged[p] > 0 {
			flushPart(p)
		}
	}
}

// PrefixSum turns counts hist[base:base+n] into exclusive prefix sums
// offset by start, returning the total. A linear dependent loop; cheap
// in every mode.
func PrefixSum(t *engine.Thread, hist *mem.U32Buf, base, n int, start uint32) uint32 {
	sum := start
	var dep engine.Tok
	for i := 0; i < n; i++ {
		v, tok := engine.LoadU32(t, hist, base+i, dep)
		engine.StoreU32(t, hist, base+i, sum, 0, engine.After(tok, 1))
		sum += v
		dep = engine.After(tok, 1)
	}
	return sum
}
