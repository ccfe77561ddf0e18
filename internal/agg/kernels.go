package agg

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
)

// The group-by kernels. Partitioning bins on the *high* bits of the
// multiplicative group-key hash (group keys may be clustered — a radix
// on raw key bits would skew), and the in-partition bucket index uses
// the next hash bits below the partition digit, so partitions do not
// collapse their tables into a handful of buckets.

// digitOf returns the bits-wide hash-digit window at the given shift
// below the top of the group key's hash: the generalization that lets
// the spill variant refine partitions recursively, one consecutive
// window per pass.
func digitOf(gk uint32, shift, bits uint) int {
	return int((rng.HashKey(gk) << shift) >> (32 - bits))
}

// bucketOf returns the in-partition bucket index (bBits wide) of a
// group key, drawn from the hash bits below the partition digit.
func bucketOf(gk uint32, pBits, bBits uint) int {
	return digitOf(gk, pBits, bBits)
}

// histSeg counts the partition digits of in[lo:hi] into
// hist[histBase:histBase+2^pBits] — the unroll+reorder histogram over
// the batched APIs: one vector (line-granular) load per 8 tuples, one
// vectorized hash, then the bin load+increment pairs as one
// read-modify-write scatter (Listing 1's optimized loop, with the bin
// address derived from a hash instead of a radix mask).
func histSeg(t *engine.Thread, in *mem.U64Buf, lo, hi int, hist *mem.U32Buf, histBase int, sel Sel, shift, bits uint) {
	var lineTok engine.Tok
	var toks [aggUnroll]engine.Tok
	var offs [aggUnroll]int64
	i := lo
	for ; i+aggUnroll <= hi; i += aggUnroll {
		t.LoadRunToks(&in.Buffer, in.Off(i), 64, 1, 0, toks[:1])
		lineTok = toks[0]
		t.Work(1) // vector multiply+shift over 8 lanes
		vTok := engine.After(lineTok, hashCost)
		for j := 0; j < aggUnroll; j++ {
			p := digitOf(sel.Group(in.D[i+j]), shift, bits)
			toks[j] = engine.After(vTok, 1) // lane extract
			offs[j] = hist.Off(histBase + p)
			hist.D[histBase+p]++
		}
		t.RMWScatter(&hist.Buffer, 4, offs[:], toks[:], nil)
	}
	// Scalar tail.
	for ; i < hi; i++ {
		tup, tok := engine.LoadU64(t, in, i, 0)
		p := digitOf(sel.Group(tup), shift, bits)
		idxTok := engine.After(tok, hashCost)
		cur, curTok := engine.LoadU32(t, hist, histBase+p, idxTok)
		engine.StoreU32(t, hist, histBase+p, cur+1, idxTok, engine.After(curTok, 1))
	}
}

// scatterSeg copies in[lo:hi] to their partitions in parts, advancing
// the per-partition cursors cur[curBase+p] — the unrolled radix copy:
// batched tuple loads, one cursor read-modify-write scatter, then the
// tuple stores whose addresses came from the cursor loads.
func scatterSeg(t *engine.Thread, in *mem.U64Buf, lo, hi int, parts *mem.U64Buf, cur *mem.U32Buf, curBase int, sel Sel, shift, bits uint) {
	var lineTok engine.Tok
	var tToks, pToks, posToks [aggUnroll]engine.Tok
	var curOffs, outOffs [aggUnroll]int64
	i := lo
	for ; i+aggUnroll <= hi; i += aggUnroll {
		t.LoadRunToks(&in.Buffer, in.Off(i), 64, 1, 0, tToks[:1])
		lineTok = tToks[0]
		t.Work(1) // vector hash over 8 lanes
		vTok := engine.After(lineTok, hashCost)
		for j := 0; j < aggUnroll; j++ {
			tup := in.D[i+j]
			p := digitOf(sel.Group(tup), shift, bits)
			tToks[j] = engine.After(lineTok, 1) // lane extract
			pToks[j] = engine.After(vTok, 1)
			curOffs[j] = cur.Off(curBase + p)
			pos := cur.D[curBase+p]
			cur.D[curBase+p] = pos + 1
			outOffs[j] = parts.Off(int(pos))
			parts.D[pos] = tup
		}
		t.RMWScatter(&cur.Buffer, 4, curOffs[:], pToks[:], posToks[:])
		t.StoreScatter(&parts.Buffer, 8, outOffs[:], posToks[:], tToks[:])
	}
	// Scalar tail.
	for ; i < hi; i++ {
		tup, tok := engine.LoadU64(t, in, i, 0)
		p := digitOf(sel.Group(tup), shift, bits)
		pTok := engine.After(tok, hashCost)
		pos, posTok := engine.LoadU32(t, cur, curBase+p, pTok)
		engine.StoreU64(t, parts, int(pos), tup, posTok, tok)
		engine.StoreU32(t, cur, curBase+p, pos+1, pTok, engine.After(posTok, 1))
	}
}

// worker is one thread's reusable in-cache aggregation area: a bucket
// table of 1-based entry indexes and an entry arena. Entries are
// EntryBytes wide — key and chain link packed in word 0, then count,
// sum, min|max — so an aggregate update is one load + one store of the
// same half-line (the read-modify-write idiom the engine batches). Each
// partition clears the bucket heads it uses on the host only, so the
// reset costs no simulated access. The arena's simulated range covers
// every row a partition can hold; its host words start at entries (the
// groups a partition is expected to hold) and double when a partition
// holds more.
type worker struct {
	buckets mem.U32Buf
	ents    mem.U64Buf
}

// newWorker makes a worker for partitions of at most maxPartRows rows.
// Its host words are heads and ents when their capacity suffices (a
// recycled arena keeps the words it grew to, up to its simulated range)
// and new ones otherwise; nil slices always give new, zeroed words.
func newWorker(env *core.Env, maxPartRows, entries int, heads []uint32, ents []uint64) worker {
	nb := max(rng.NextPow2(maxPartRows), 16)
	arena := EntryWords * (maxPartRows + 2)
	need := EntryWords * (min(maxPartRows, entries) + 2)
	return worker{
		buckets: mem.U32Buf{
			Buffer: env.Space.Alloc("agg.buckets", int64(nb)*4, env.DataRegion()),
			D:      mem.Reuse(heads, nb),
		},
		ents: mem.U64Buf{
			Buffer: env.Space.Alloc("agg.ents", int64(arena)*8, env.DataRegion()),
			D:      mem.Reuse(ents, min(max(cap(ents), need), arena)),
		},
	}
}

// entOff returns the simulated byte offset of 1-based entry row.
func (w *worker) entOff(row uint32) int64 { return int64(row) * EntryBytes }

// update applies value v to the real aggregate state of entry row.
func (w *worker) update(row uint32, v uint32) {
	e := int(row) * EntryWords
	w.ents.D[e+1]++
	w.ents.D[e+2] += uint64(v)
	mn, mx := uint32(w.ents.D[e+3]), uint32(w.ents.D[e+3]>>32)
	if v < mn {
		mn = v
	}
	if v > mx {
		mx = v
	}
	w.ents.D[e+3] = uint64(mn) | uint64(mx)<<32
}

// insert initializes entry row for group gk with first value v and
// chain link to the previous bucket head, growing the arena's host
// words when row is past them.
func (w *worker) insert(row uint32, gk, v, link uint32) {
	e := int(row) * EntryWords
	if e+EntryWords > len(w.ents.D) {
		w.ents.D = append(w.ents.D, make([]uint64, len(w.ents.D))...)
	}
	w.ents.D[e] = uint64(gk) | uint64(link)<<32
	w.ents.D[e+1] = 1
	w.ents.D[e+2] = uint64(v)
	w.ents.D[e+3] = uint64(v) | uint64(v)<<32
}

// matchAtHead reports whether head (non-zero) is gk's entry — the
// common case once the table is populated, resolved host-side to pick
// the batched read-modify-write dispatch.
func (w *worker) matchAtHead(head, gk uint32) bool {
	return uint32(w.ents.D[int(head)*EntryWords]) == gk
}

// chase charges the dependent chain walk from head (non-zero) looking
// for gk: one EntryBytes load per visited entry, each address derived
// from the previous entry's link field, plus one compare per entry.
// It returns the matched row (0: absent), the token of that entry's
// load, and the dep its address came from; on a miss addrTok is the
// token after the full walk.
func (w *worker) chase(t *engine.Thread, head, gk uint32, dep engine.Tok) (row uint32, loadTok, addrTok engine.Tok) {
	for row = head; row != 0; {
		loadTok = t.Load(&w.ents.Buffer, w.entOff(row), EntryBytes, dep)
		t.Work(1) // key compare
		e := int(row) * EntryWords
		if uint32(w.ents.D[e]) == gk {
			return row, loadTok, dep
		}
		row = uint32(w.ents.D[e] >> 32)
		dep = engine.After(loadTok, 1)
	}
	return 0, 0, dep
}

// aggregateOne is the scalar (tail) path: the per-op decomposition of
// one tuple's aggregation — bucket-head load, dependent entry chain,
// then either an entry read-modify-write (existing group) or an entry
// store plus bucket-head update (new group). nG is the current group
// count; the updated count is returned.
func (w *worker) aggregateOne(t *engine.Thread, tup uint64, tok engine.Tok, sel Sel, h int, nG uint32) uint32 {
	gk, v := sel.Group(tup), sel.Value(tup)
	hTok := engine.After(tok, hashCost)
	headTok := t.Load(&w.buckets.Buffer, w.buckets.Off(h), 4, hTok)
	head := w.buckets.D[h]
	if head != 0 {
		row, loadTok, aDep := w.chase(t, head, gk, engine.After(headTok, 1))
		if row != 0 {
			// Aggregate update: store the entry back (same line as its
			// load — the read-modify-write idiom).
			t.Store(&w.ents.Buffer, w.entOff(row), EntryBytes, aDep, engine.After(loadTok, 1))
			w.update(row, v)
			return nG
		}
	}
	nG++
	w.insert(nG, gk, v, head)
	w.buckets.D[h] = nG
	// Entry store at the sequential group cursor (statically known
	// address; the data includes the just-loaded head as chain link),
	// then the bucket-head update at the hash-derived address.
	t.Store(&w.ents.Buffer, w.entOff(nG), EntryBytes, 0, engine.After(headTok, 1))
	t.Store(&w.buckets.Buffer, w.buckets.Off(h), 4, hTok, engine.After(headTok, 1))
	return nG
}

// aggregatePartition aggregates parts[lo:hi] into the worker's table and
// returns the number of distinct groups. The batched loop mirrors the
// optimized joins: one vector load per 8 tuples, one gather of the
// batch's bucket heads, then the entry accesses dispatched as scatter
// groups — existing groups as one entry read-modify-write scatter (the
// dominant case once the table is populated), new groups as an entry
// store scatter plus a bucket-head store scatter. Chains longer than one
// entry fall back to dependent per-op loads (rare by construction: the
// bucket table is sized at the partition's row count).
func (w *worker) aggregatePartition(t *engine.Thread, parts *mem.U64Buf, lo, hi int, sel Sel, pBits uint) int {
	rows := hi - lo
	if rows <= 0 {
		return 0
	}
	nb := rng.NextPow2(rows)
	if nb < 16 {
		nb = 16
	}
	if nb > w.buckets.Len() {
		nb = w.buckets.Len()
	}
	clear(w.buckets.D[:nb])
	return int(w.aggregateRun(t, parts, lo, hi, sel, pBits, rng.Log2(nb), 0))
}

// aggregateRun is aggregatePartition's inner loop without the table
// reset: it continues from nG already-present groups, so callers can
// fold several input runs into one table (the naive Direct baseline
// streams every segment through a single full-domain table this way).
func (w *worker) aggregateRun(t *engine.Thread, parts *mem.U64Buf, lo, hi int, sel Sel, pBits, bBits uint, nG uint32) uint32 {
	var lineToks [1]engine.Tok
	var hToks, headToks [aggUnroll]engine.Tok
	var bOffs [aggUnroll]int64
	var hs [aggUnroll]int
	var updOffs, insOffs, hdOffs [aggUnroll]int64
	var updDeps, insDeps, hdADeps, hdDDeps [aggUnroll]engine.Tok

	i := lo
	for ; i+aggUnroll <= hi; i += aggUnroll {
		t.LoadRunToks(&parts.Buffer, parts.Off(i), 64, 1, 0, lineToks[:])
		t.Work(1) // vector hash over 8 lanes
		vTok := engine.After(lineToks[0], hashCost)
		for j := 0; j < aggUnroll; j++ {
			hToks[j] = engine.After(vTok, 1) // lane extract
			hs[j] = bucketOf(sel.Group(parts.D[i+j]), pBits, bBits)
			bOffs[j] = w.buckets.Off(hs[j])
		}
		t.LoadGather(&w.buckets.Buffer, 4, bOffs[:], hToks[:], headToks[:])
		nUpd, nIns, nHd := 0, 0, 0
		for j := 0; j < aggUnroll; j++ {
			tup := parts.D[i+j]
			gk, v := sel.Group(tup), sel.Value(tup)
			head := w.buckets.D[hs[j]]
			dep := engine.After(headToks[j], 1)
			if head != 0 && w.matchAtHead(head, gk) {
				// Existing group at the chain head: one entry RMW,
				// dispatched with the batch.
				t.Work(1) // key compare
				updOffs[nUpd] = w.entOff(head)
				updDeps[nUpd] = dep
				nUpd++
				w.update(head, v)
				continue
			}
			if head != 0 {
				// Deeper in the chain (or a miss after a full walk):
				// dependent per-op hops.
				row, loadTok, aDep := w.chase(t, head, gk, dep)
				if row != 0 {
					t.Store(&w.ents.Buffer, w.entOff(row), EntryBytes, aDep, engine.After(loadTok, 1))
					w.update(row, v)
					continue
				}
			}
			// New group: entry store at the group cursor, head update.
			nG++
			w.insert(nG, gk, v, head)
			w.buckets.D[hs[j]] = nG
			insOffs[nIns] = w.entOff(nG)
			insDeps[nIns] = dep
			nIns++
			hdOffs[nHd] = bOffs[j]
			hdADeps[nHd] = hToks[j]
			hdDDeps[nHd] = dep
			nHd++
		}
		t.RMWScatter(&w.ents.Buffer, EntryBytes, updOffs[:nUpd], updDeps[:nUpd], nil)
		t.StoreScatter(&w.ents.Buffer, EntryBytes, insOffs[:nIns], nil, insDeps[:nIns])
		t.StoreScatter(&w.buckets.Buffer, 4, hdOffs[:nHd], hdADeps[:nHd], hdDDeps[:nHd])
	}
	// Scalar tail.
	for ; i < hi; i++ {
		tup, tok := engine.LoadU64(t, parts, i, 0)
		nG = w.aggregateOne(t, tup, tok, sel, bucketOf(sel.Group(tup), pBits, bBits), nG)
	}
	return nG
}

// emit copies the partition's nG group entries to the output array at
// entry slot outSlot: one sequential read run over the entry arena, a
// pack step stripping the chain links, then one sequential store run —
// the streaming materialization of an aggregation result.
func (w *worker) emit(t *engine.Thread, out *mem.U64Buf, outSlot, nG int) {
	if nG == 0 {
		return
	}
	ldTok := t.LoadRun(&w.ents.Buffer, EntryBytes, EntryBytes, nG, 0)
	for r := 1; r <= nG; r++ {
		e := r * EntryWords
		o := (outSlot + r - 1) * EntryWords
		out.D[o] = uint64(uint32(w.ents.D[e])) // key, link stripped
		out.D[o+1] = w.ents.D[e+1]
		out.D[o+2] = w.ents.D[e+2]
		out.D[o+3] = w.ents.D[e+3]
	}
	t.Work(uint64(nG)) // pack/strip the links
	t.StoreRun(&out.Buffer, out.Off(outSlot*EntryWords), EntryBytes, nG, 0, engine.After(ldTok, 1))
}
