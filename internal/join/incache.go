package join

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
)

// scratch is a per-thread reusable hash area for in-cache partition joins
// (the join method RHO, CrkJoin and GRACE share, [3, 26]). Buckets hold
// 1-based entry indexes; each entry packs the build tuple together with
// its chain link (16 bytes), as in the bucket-chained tables of the
// TEEBench lineage — a probe hop therefore costs one load, not a tuple
// load plus a separate link load. An epoch counter makes clearing free; the timed
// cost of the (tiny) bucket memset is charged explicitly.
type scratch struct {
	buckets *mem.U32Buf
	epoch   *mem.U32Buf // real epoch tags (no timing: part of buckets line)
	ents    *mem.U64Buf // 2 words per entry: tuple, chain link
	gen     uint32
}

// entStride is the byte size of one chain entry (tuple + link, padded).
const entStride = 16

func newScratch(env *core.Env, maxPartRows int) *scratch {
	nb := rng.NextPow2(maxPartRows)
	if nb < 16 {
		nb = 16
	}
	return &scratch{
		buckets: env.Space.AllocU32("join.buckets", nb, env.DataRegion()),
		epoch:   env.Space.AllocU32("join.epoch", nb, env.DataRegion()),
		ents:    env.Space.AllocU64("join.ents", 2*(maxPartRows+1), env.DataRegion()),
	}
}

// joinPartitions runs the in-cache partition phase that RHO, CrkJoin and
// GRACE end in, as group phase name: partition p joins
// R[rStart[p]:rStart[p+1]] with S[sStart[p]:sStart[p+1]]. Threads take
// blocks of blk consecutive partitions round-robin (RHO's blocks are its
// pass-1 partitions, the others' single partitions), each with its own
// scratch sized by the largest build partition. Matches, build/probe
// cycles and output are folded into res.
func joinPartitions(env *core.Env, g *exec.Group, name string, R *mem.U64Buf, rStart []int, S *mem.U64Buf, sStart []int, blk int, opt Options, res *Result) {
	T := len(g.Threads)
	P := len(rStart) - 1
	maxPart := 0
	for p := 0; p < P; p++ {
		maxPart = max(maxPart, rStart[p+1]-rStart[p])
	}
	scratches := make([]*scratch, T)
	for i := range scratches {
		scratches[i] = newScratch(env, maxPart)
	}
	tl := make(tallies, T)
	cycles := make([][2]uint64, T) // per thread: build, probe
	g.Phase(name, func(t *engine.Thread, id int) {
		out := tl.writer(env, id, opt)
		for b := id * blk; b < P; b += T * blk {
			for p := b; p < b+blk; p++ {
				tl[id].matches += joinPartition(t, R, rStart[p], rStart[p+1], S, sStart[p], sStart[p+1],
					scratches[id], opt.Optimized, out, &cycles[id])
			}
		}
	})
	tl.fold(res, opt)
	for _, c := range cycles {
		res.BuildCycles += c[0]
		res.ProbeCycles += c[1]
	}
}

// joinPartition builds a hash table over R[rLo:rHi] and probes it with
// S[sLo:sHi]. It returns the number of matches and adds the build and
// probe cycles to cycles[0] and cycles[1]. Both loops exist in scalar
// and unroll+reorder (optimized) forms: the hash-table insert is a
// data-dependent write (bucket head update at a hash-derived address),
// so the scalar form pays the full SSB serialization inside enclaves even
// though every access hits the cache (Table 2, "data-dependent write,
// < LLC").
func joinPartition(t *engine.Thread, R *mem.U64Buf, rLo, rHi int, S *mem.U64Buf, sLo, sHi int,
	sc *scratch, optimized bool, out *outWriter, cycles *[2]uint64) uint64 {

	rLen := rHi - rLo
	if rLen <= 0 {
		return 0 // no table: no matches
	}
	nb := rng.NextPow2(rLen)
	if nb < 16 {
		nb = 16
	}
	if nb > sc.buckets.Len() {
		nb = sc.buckets.Len()
	}
	bits := rng.Log2(nb)
	sc.gen++

	// --- Build ---
	start := t.Cycle()
	insert := func(i int, tup uint64, tok engine.Tok) {
		h := hashIdx(mem.TupleKey(tup), bits)
		hTok := engine.After(tok, hashCost)
		headTok := t.Load(&sc.buckets.Buffer, sc.buckets.Off(int(h)), 4, hTok)
		var head uint32
		if sc.epoch.D[h] == sc.gen {
			head = sc.buckets.D[h]
		}
		row := i - rLo + 1
		// Entry store at the sequential entry cursor: the tuple and its
		// chain link leave together in one 16-byte store.
		sc.ents.D[2*row] = tup
		sc.ents.D[2*row+1] = uint64(head)
		t.Store(&sc.ents.Buffer, int64(row)*entStride, entStride, 0, headTok)
		sc.buckets.D[h] = uint32(row)
		sc.epoch.D[h] = sc.gen
		// Bucket head update: store address derived from the loaded key.
		t.Store(&sc.buckets.Buffer, sc.buckets.Off(int(h)), 4, hTok, engine.After(headTok, 1))
	}
	if !optimized {
		for i := rLo; i < rHi; i++ {
			tup, tok := engine.LoadU64(t, R, i, 0)
			insert(i, tup, tok)
		}
	} else {
		const u = 8
		var toks, hToks, headToks, entDeps [u]engine.Tok
		var bOffs, entOffs [u]int64
		var hs [u]uint32
		i := rLo
		for ; i+u <= rHi; i += u {
			// Load group: one batched run of u consecutive tuple loads
			// ahead of the hash-dependent bucket stores. The bucket-head
			// load + update pairs are one read-modify-write scatter (each
			// pair shares its bucket line), the entry stores one scatter
			// of consecutive 16-byte entries.
			lineTok := t.LoadRun(&R.Buffer, R.Off(i), 64, 1, 0) // one vector load per 8 keys
			for j := 0; j < u; j++ {
				toks[j] = engine.After(lineTok, 1) // lane extract
				hs[j] = hashIdx(mem.TupleKey(R.D[i+j]), bits)
				hToks[j] = engine.After(toks[j], hashCost)
				bOffs[j] = sc.buckets.Off(int(hs[j]))
			}
			t.RMWScatter(&sc.buckets.Buffer, 4, bOffs[:], hToks[:], headToks[:])
			for j := 0; j < u; j++ {
				h := hs[j]
				var head uint32
				if sc.epoch.D[h] == sc.gen {
					head = sc.buckets.D[h]
				}
				row := i + j - rLo + 1
				sc.ents.D[2*row] = R.D[i+j]
				sc.ents.D[2*row+1] = uint64(head)
				sc.buckets.D[h] = uint32(row)
				sc.epoch.D[h] = sc.gen
				entOffs[j] = int64(row) * entStride
				entDeps[j] = headToks[j]
			}
			t.StoreScatter(&sc.ents.Buffer, entStride, entOffs[:], nil, entDeps[:])
		}
		for ; i < rHi; i++ {
			tup, tok := engine.LoadU64(t, R, i, 0)
			insert(i, tup, tok)
		}
	}
	t.Drain()
	mid := t.Cycle()
	cycles[0] += mid - start

	// --- Probe ---
	var matches uint64
	// compareEntry charges the key compare of one chain entry and emits
	// output; it returns the next 1-based entry index.
	compareEntry := func(tup uint64, key uint32, row uint32, entryTok engine.Tok) uint32 {
		t.Work(1)
		rt := sc.ents.D[2*row]
		if mem.TupleKey(rt) == key {
			matches++
			if out != nil {
				out.append(t, mem.MakeTuple(mem.TuplePayload(tup), mem.TuplePayload(rt)), entryTok)
			}
		}
		return uint32(sc.ents.D[2*row+1])
	}
	chase := func(tup uint64, chainTok engine.Tok) {
		key := mem.TupleKey(tup)
		h := hashIdx(key, bits)
		var row uint32
		if sc.epoch.D[h] == sc.gen {
			row = sc.buckets.D[h]
		}
		for row != 0 {
			entryTok := t.Load(&sc.ents.Buffer, int64(row)*entStride, entStride, chainTok)
			row = compareEntry(tup, key, row, entryTok)
			chainTok = engine.After(entryTok, 1)
		}
	}
	probeOne := func(tup uint64, tok engine.Tok) {
		h := hashIdx(mem.TupleKey(tup), bits)
		hTok := engine.After(tok, hashCost)
		chase(tup, t.Load(&sc.buckets.Buffer, sc.buckets.Off(int(h)), 4, hTok))
	}
	if !optimized {
		for j := sLo; j < sHi; j++ {
			tup, tok := engine.LoadU64(t, S, j, 0)
			probeOne(tup, tok)
		}
	} else {
		const u = 8
		var toks, hToks, chainToks, entDeps, entToks [u]engine.Tok
		var bOffs, entOffs [u]int64
		var rows, hs [u]uint32
		var idx [u]int
		j := sLo
		for ; j+u <= sHi; j += u {
			// Load group: batched probe-side loads, one gather of the
			// batch's bucket heads, then — the chain heads being known —
			// one gather of the first chain entries, before the per-tuple
			// compares and (rare) longer chains.
			lineTok := t.LoadRun(&S.Buffer, S.Off(j), 64, 1, 0) // one vector load per 8 keys
			for l := 0; l < u; l++ {
				toks[l] = engine.After(lineTok, 1) // lane extract
				hs[l] = hashIdx(mem.TupleKey(S.D[j+l]), bits)
				hToks[l] = engine.After(toks[l], hashCost)
				bOffs[l] = sc.buckets.Off(int(hs[l]))
			}
			t.LoadGather(&sc.buckets.Buffer, 4, bOffs[:], hToks[:], chainToks[:])
			n := 0
			for l := 0; l < u; l++ {
				h := hs[l]
				var row uint32
				if sc.epoch.D[h] == sc.gen {
					row = sc.buckets.D[h]
				}
				if row != 0 {
					rows[n] = row
					idx[n] = l
					entOffs[n] = int64(row) * entStride
					entDeps[n] = chainToks[l]
					n++
				}
			}
			t.LoadGather(&sc.ents.Buffer, entStride, entOffs[:n], entDeps[:n], entToks[:n])
			for k := 0; k < n; k++ {
				tup := S.D[j+idx[k]]
				key := mem.TupleKey(tup)
				row := compareEntry(tup, key, rows[k], entToks[k])
				chainTok := engine.After(entToks[k], 1)
				for row != 0 {
					entryTok := t.Load(&sc.ents.Buffer, int64(row)*entStride, entStride, chainTok)
					row = compareEntry(tup, key, row, entryTok)
					chainTok = engine.After(entryTok, 1)
				}
			}
		}
		for ; j < sHi; j++ {
			tup, tok := engine.LoadU64(t, S, j, 0)
			probeOne(tup, tok)
		}
	}
	t.Drain()
	cycles[1] += t.Cycle() - mid
	return matches
}
