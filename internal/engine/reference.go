package engine

import (
	"sgxbench/internal/cache"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
)

// The reference engine: the original per-op implementation of the memory
// model, kept whole in this file as the executable specification the
// production engine is tested against. The rest of the package hands over
// to the ref* methods below at the nine points named under "# Reference
// seam" in the package comment; a production Thread (t.ref == nil) never
// reaches this file.

// refModel owns the reference cache hierarchy (timestamp LRU, separate
// probe and fill walks).
type refModel struct {
	l1, l2, l3 *cache.RefCache
	dtlb, stlb *cache.RefTLB
}

func newRefModel(p *platform.Platform, l3 platform.CacheGeom) *refModel {
	return &refModel{
		l1:   cache.NewRef(p.L1D),
		l2:   cache.NewRef(p.L2),
		l3:   cache.NewRef(l3),
		dtlb: cache.NewRefTLB(p.DTLB),
		stlb: cache.NewRefTLB(p.STLB),
	}
}

func (r *refModel) reset() {
	r.l1.Reset()
	r.l2.Reset()
	r.l3.Reset()
	r.dtlb.Reset()
	r.stlb.Reset()
}

// refLoad is the per-op reference implementation of loadAt.
func (t *Thread) refLoad(b *mem.Buffer, addr uint64, dep Tok) Tok {
	if t.epcDom != nil && b.Reg.Kind == mem.EPC {
		t.epcTouch(addr >> t.pageShift)
	}
	issue := maxTok(Tok(t.issueTick()), dep)
	issue = t.loadGate(issue)
	t.st.Loads++
	lat, llcMiss, paced := t.refAccess(b, addr, false)
	switch {
	case paced:
		// Bandwidth-paced stream: the prefetcher hides latency, the core
		// advances at stream bandwidth.
		t.cycle = uint64(issue) + lat
		return Tok(t.cycle)
	case llcMiss:
		slot := t.minSlot()
		start := maxTok(issue, Tok(t.mlp[slot]))
		done := start + Tok(lat)
		t.mlp[slot] = uint64(done)
		return done
	default:
		return issue + Tok(lat)
	}
}

// refStore is the per-op reference implementation of storeAt.
func (t *Thread) refStore(b *mem.Buffer, addr uint64, addrDep, dataDep Tok) Tok {
	if t.epcDom != nil && b.Reg.Kind == mem.EPC {
		t.epcTouch(addr >> t.pageShift)
	}
	issue := Tok(t.issueTick())
	addrKnown := maxTok(issue, addrDep)
	if uint64(addrKnown) > t.storeBarrier {
		t.storeBarrier = uint64(addrKnown)
	}
	t.st.Stores++
	lat, llcMiss, paced := t.refAccess(b, addr, true)
	ready := maxTok(addrKnown, dataDep)
	var done Tok
	switch {
	case paced:
		t.cycle = uint64(issue) + lat
		done = maxTok(ready, Tok(t.cycle))
	case llcMiss:
		// Write-allocate: the RFO occupies a miss slot like a load.
		slot := t.minSlot()
		start := maxTok(ready, Tok(t.mlp[slot]))
		done = start + Tok(lat)
		t.mlp[slot] = uint64(done)
	default:
		done = ready + Tok(lat)
	}
	// Store buffer occupancy: if the ring is full of incomplete stores,
	// issue stalls until the oldest drains.
	if t.sbuf[t.sbufPos] > t.cycle {
		t.cycle = t.sbuf[t.sbufPos]
	}
	t.sbuf[t.sbufPos] = uint64(done)
	t.sbufPos = (t.sbufPos + 1) % len(t.sbuf)
	// Forwarding latency from the store buffer.
	return maxTok(ready, dataDep) + 5
}

// refAccess charges one access as (latency, llcMiss, bandwidthPaced): a
// full stream-table scan, a full TLB probe and separate probe/fill cache
// walks, over the timestamp-LRU reference structures. The latency of a
// paced access is a cycle-advance, not a completion latency (see refLoad).
func (t *Thread) refAccess(b *mem.Buffer, addr uint64, write bool) (lat uint64, llcMiss, paced bool) {
	remote := b.Reg.Node != t.Node
	epc := b.Reg.Kind == mem.EPC
	inStream := t.refTrainStream(addr)

	// --- Translation ---
	var tlbLat uint64
	page := addr / uint64(t.Plat.PageBytes)
	if !t.ref.dtlb.Access(page) {
		if t.ref.stlb.Access(page) {
			tlbLat += t.Plat.LatSTLB
		} else {
			tlbLat += t.walkPage(page, b.Reg.Node, epc, remote)
		}
	}

	// --- Data ---
	dl, level := t.refHier(addr, write, b.Reg.Node, epc, remote)
	if level == levelDRAM {
		t.st.DRAMAcc++
		if inStream {
			// Prefetched stream: pace at stream bandwidth instead of
			// paying the full miss latency; translation overlaps with
			// the stream. The reference recomputes the pacing latency
			// from bandwidth each time, as the model originally did; the
			// value is bit-identical to the production engine's
			// precomputed table.
			bw := t.Plat.CoreStreamBW
			if remote {
				bw = t.Plat.RemoteStreamBW
				if epc {
					bw *= t.Costs.UPIStreamTaxEPC
				}
			} else if epc {
				bw *= t.Plat.EPCStreamTax
			}
			lat = uint64(float64(t.Plat.L1D.LineBytes) / bw)
			t.st.StreamFills++
			return lat, true, true
		}
		t.st.RandomFills++
		return tlbLat + dl, true, false
	}
	return tlbLat + dl, false, false
}

// refTrainStream is the reference implementation of the stream table: a
// linear scan of all slots for the page's stream (and, on a miss, for a
// neighbouring page's stream to continue), exactly as the original model
// scanned its fully-associative table per access. It performs the
// identical state transition to trainStream — a page's stream can only
// ever live in that page's index pair, so the scan finds the same slot
// direct indexing does.
func (t *Thread) refTrainStream(addr uint64) bool {
	line := addr >> 6
	page := line >> t.lpShift
	i := page & (nStreams - 1)
	for j := range t.streams {
		s := &t.streams[j]
		if s.pageKey != page+1 {
			continue
		}
		t.mruWay[i] = uint8(j & 1)
		switch line - s.lastLine {
		case 0:
			return s.streak >= 2
		case 1, ^uint64(0):
			s.streak++
			s.lastLine = line
			return s.streak >= 2
		}
		s.lastLine = line
		s.streak = 0
		return false
	}
	var streak uint64
	for j := range t.streams {
		s := &t.streams[j]
		// pageKey is page+1 of the tracked page, so a slot tracking
		// page-1 has pageKey == page; guard page != 0 so empty slots
		// (pageKey 0) can never match.
		if page != 0 && s.pageKey == page && line == s.lastLine+1 {
			streak = s.streak + 1
			break
		}
		if s.pageKey == page+2 && line+1 == s.lastLine {
			streak = s.streak + 1
			break
		}
	}
	w := 1 - int(t.mruWay[i])
	t.streams[2*i+uint64(w)] = stream{pageKey: page + 1, lastLine: line, streak: streak}
	t.mruWay[i] = uint8(w)
	return streak >= 2
}

// refHier is the reference implementation of hier: the original
// separate-probe-then-fill walk of the cache hierarchy for one line.
func (t *Thread) refHier(addr uint64, write bool, homeNode int, epc, remote bool) (uint64, level) {
	r := t.ref
	line := r.l1.LineOf(addr)
	if r.l1.Access(line, write) {
		t.st.L1Hits++
		return t.Plat.LatL1, levelL1
	}
	if r.l2.Access(line, write) {
		r.l1.Fill(line, write)
		t.st.L2Hits++
		return t.Plat.LatL2, levelL2
	}
	if r.l3.Access(line, write) {
		r.l2.Fill(line, write)
		r.l1.Fill(line, write)
		t.st.L3Hits++
		return t.Plat.LatL3, levelL3
	}
	r.l1.Fill(line, write)
	r.l2.Fill(line, write)
	_, dirty, ok := r.l3.Fill(line, write)
	return t.dramFill(write, homeNode, epc, remote, ok && dirty), levelDRAM
}

// refTranslateNT advances the translation state for one StoreLinesNT
// line: a full probe per line whose latency hides behind the stream.
func (t *Thread) refTranslateNT(page uint64, node int, epc, remote bool) {
	if !t.ref.dtlb.Access(page) && !t.ref.stlb.Access(page) {
		t.walkPage(page, node, epc, remote)
	}
}

// refLoadRun is the reference decomposition of LoadRun, LoadRunToks
// (toks != nil) and LoadLines (elem 64): the public per-op API, one Load
// per element, exactly as the pre-batching code issued them. Only
// LoadLines can reach past the buffer end with its final line, which is
// clamped like LoadLine's.
func (t *Thread) refLoadRun(b *mem.Buffer, off, elem int64, n int, dep Tok, toks []Tok) Tok {
	var done Tok
	for i := 0; i < n; i++ {
		done = t.Load(b, off, min(elem, b.Size-off), dep)
		if toks != nil {
			toks[i] = done
		}
		off += elem
	}
	return done
}

// refStoreRun is the reference decomposition of StoreRun: one Store per
// element.
func (t *Thread) refStoreRun(b *mem.Buffer, off, elem int64, n int, addrDep, dataDep Tok) Tok {
	var done Tok
	for i := 0; i < n; i++ {
		done = t.Store(b, off, elem, addrDep, dataDep)
		off += elem
	}
	return done
}
