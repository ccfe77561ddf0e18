package engine

import "sgxbench/internal/mem"

// Synthetic address windows for translation metadata. They sit below the
// first mem.Space region window (1<<44) so they can never collide with
// data. PTE entries are 8 bytes (512 per page-table page); EPCM entries
// are modeled at 16 bytes per EPC page. Both travel through the regular
// cache hierarchy, so their locality follows the data's page locality:
// sequential scans keep translation metadata cache-resident while random
// accesses over large ranges miss on metadata too — the mechanism behind
// the super-linear random-access overheads of Fig 5.
const (
	pteWindow  = uint64(1) << 42
	epcmWindow = uint64(3) << 42
)

// noPage is the empty value of the one-entry translation cache: no real
// translation can produce it (simulated addresses stay far below 2^63).
const noPage = ^uint64(0)

// For accesses that are part of a detected sequential stream the
// translation latency is not charged: the hardware page walker runs ahead
// of the stream alongside the prefetcher, so scans observe pure bandwidth
// — this is why the paper's EPCM-check overhead hurts random accesses
// (Fig 5) but leaves linear scans at ~-3 % (Fig 13).

// fastTranslate performs the full translation for a page that misses the
// one-entry last-page cache, updating it. Callers pre-check
// dtlb.MRUHit(page) inline (a DTLB-set-MRU page hits without any state
// change), so this function runs only when a real probe is needed.
func (t *Thread) fastTranslate(page uint64, b *mem.Buffer) uint64 {
	var tlbLat uint64
	if !t.dtlb.Access(page) {
		if t.stlb.Access(page) {
			tlbLat = t.Plat.LatSTLB
		} else {
			remote := b.Reg.Node != t.Node
			tlbLat = t.walkPage(page, b.Reg.Node, b.Reg.Kind == mem.EPC, remote)
		}
	}
	t.lastPage = page
	return tlbLat
}

// pacedAdvance returns the per-line cycle advance of a bandwidth-paced
// stream fill (precomputed at thread construction).
func (t *Thread) pacedAdvance(epc, remote bool) uint64 {
	i := 0
	if epc {
		i = 1
	}
	if remote {
		i |= 2
	}
	return t.pacedLat[i]
}

// walkPage charges a hardware page walk (on STLB miss): the base walk
// latency, the PTE fetches through the cache hierarchy, and — for EPC
// pages — the EPCM security checks. Shared by both engines; the metadata
// fetches go through hier, which hands over on a reference thread. When
// the walked page's 2 MiB region hits the paging-structure cache, the
// non-leaf levels are served by the walker internally and only the leaf
// PTE is fetched through the hierarchy.
func (t *Thread) walkPage(page uint64, homeNode int, epc, remote bool) uint64 {
	t.st.TLBWalks++
	tlbLat := t.Plat.LatPageWalk
	levels := t.Plat.PTEAccesses
	pde := page >> 9
	if slot := pde & (pwcEntries - 1); t.pwc[slot] == pde+1 {
		levels = 1
	} else {
		t.pwc[slot] = pde + 1
	}
	for i := 0; i < levels; i++ {
		// Walk levels have decreasing footprint and increasing
		// locality: level i covers page>>(9*i). Each level gets
		// its own sub-window so entries do not alias.
		pteAddr := pteWindow + uint64(i)<<40 + (page>>uint(9*i))<<3
		l, _ := t.hier(pteAddr, false, homeNode, false, remote)
		tlbLat += l
		t.st.MetaAcc++
	}
	if epc {
		// EPCM security checks on enclave address translation
		// (Section 4.1: "most of the security guarantees of Intel
		// SGX are enforced by adding checks to address
		// translation. This increases the cost of TLB misses").
		// EPCM metadata lives in the PRM: its lines are encrypted
		// like any EPC line and large enclave working sets push
		// it out of the LLC, which is what drives random enclave
		// accesses towards 3x (Fig 5).
		tlbLat += t.Costs.EPCMCheckCycles
		for i := 0; i < t.Costs.EPCMAccesses; i++ {
			eAddr := epcmWindow + (page*uint64(t.Costs.EPCMAccesses)+uint64(i))<<6
			l, _ := t.hier(eAddr, false, homeNode, true, remote)
			tlbLat += l
			t.st.MetaAcc++
		}
	}
	return tlbLat
}

type level int

const (
	levelL1 level = iota
	levelL2
	levelL3
	levelDRAM
)

// hier walks the cache hierarchy for one line, filling on miss, and
// returns the latency and the level that served the access. Each level is
// probed and, on a miss, filled in a single pass over the set, so misses
// never rescan it. The L1 hit exit is the short common path — one probe of
// the recency-ordered set and no further accounting. DRAM-level costs
// include the SGX adders (dramFill).
func (t *Thread) hier(addr uint64, write bool, homeNode int, epc, remote bool) (uint64, level) {
	if t.ref != nil {
		return t.refHier(addr, write, homeNode, epc, remote)
	}
	line := t.l1.LineOf(addr)
	// Seed every level the probe reaches: a level that misses is filled
	// immediately (refHier fills it later in the same access — the merged
	// probe performs the same insertion in one pass).
	if hit, _, _, _ := t.l1.AccessOrFill(line, write); hit {
		t.st.L1Hits++
		return t.Plat.LatL1, levelL1
	}
	if hit, _, _, _ := t.l2.AccessOrFill(line, write); hit {
		t.st.L2Hits++
		return t.Plat.LatL2, levelL2
	}
	hit, _, dirty, ok := t.l3.AccessOrFill(line, write)
	if hit {
		t.st.L3Hits++
		return t.Plat.LatL3, levelL3
	}
	return t.dramFill(write, homeNode, epc, remote, ok && dirty), levelDRAM
}

// dramFill accounts a DRAM-level line transfer: latency adders, per-socket
// byte counters, write-allocate writeback traffic and a dirty L3 eviction.
func (t *Thread) dramFill(write bool, homeNode int, epc, remote, evictedDirty bool) uint64 {
	lineBytes := uint64(t.Plat.L1D.LineBytes)
	lat := t.Plat.LatDRAM
	if remote {
		lat += t.Plat.LatRemote
		t.st.UPIBytes += lineBytes
		if epc {
			lat += t.Costs.UCELatency
		}
	}
	if epc {
		lat += t.Costs.EPCLineDecrypt
	}
	node := homeNode
	if node < 0 || node > 1 {
		node = 0
	}
	t.st.DRAMBytes[node] += lineBytes
	if write {
		// Write-allocate brings the line in and will eventually write it
		// back: account the writeback half now.
		t.st.DRAMBytes[node] += lineBytes
		if remote {
			t.st.UPIBytes += lineBytes
		}
	}
	if evictedDirty {
		t.st.EvictedDirty++
		t.st.DRAMBytes[node] += lineBytes
	}
	return lat
}

// trainStream updates the prefetcher's stream table and reports whether
// the access at addr continues a detected sequential stream (two or more
// consecutive lines). The table is direct-mapped by 4 KiB page, as in
// hardware stream prefetchers that track per-page state: training is O(1)
// — no table scan and no replacement ambiguity — which is what lets both
// the per-op and batched paths share it bit for bit. Streams track
// ascending and descending runs (descending matters for CrkJoin's
// two-pointer pass) and carry their streak across page boundaries by
// migrating to the neighbouring page's slot.
func (t *Thread) trainStream(addr uint64) bool {
	line := addr >> 6
	page := line >> t.lpShift
	i := page & (nStreams - 1)
	w := 0
	s := &t.streams[2*i]
	if s.pageKey != page+1 {
		if s2 := &t.streams[2*i+1]; s2.pageKey == page+1 {
			s, w = s2, 1
		} else {
			// No stream tracks this page yet: claim the non-MRU way.
			// Cross-page continuation carries the streak over — an
			// ascending stream arrives from the previous page's slot, a
			// descending one from the next page's. Only the page's first
			// (resp. last) line can continue a neighbouring stream, so
			// the neighbour lookups are skipped everywhere else.
			var streak uint64
			if lineInPage := line & (1<<t.lpShift - 1); lineInPage == 0 {
				if p := t.streamAt(page - 1); p != nil && line == p.lastLine+1 {
					streak = p.streak + 1
				}
			} else if lineInPage == 1<<t.lpShift-1 {
				if n := t.streamAt(page + 1); n != nil && line+1 == n.lastLine {
					streak = n.streak + 1
				}
			}
			w = 1 - int(t.mruWay[i])
			s = &t.streams[2*i+uint64(w)]
			*s = stream{pageKey: page + 1, lastLine: line, streak: streak}
			t.mruWay[i] = uint8(w)
			return streak >= 2
		}
	}
	t.mruWay[i] = uint8(w)
	switch line - s.lastLine {
	case 0: // re-touch of the current line keeps the stream alive
		return s.streak >= 2
	case 1, ^uint64(0): // ascending or descending continuation
		s.streak++
		s.lastLine = line
		return s.streak >= 2
	}
	// Jump within the page: restart detection.
	s.lastLine = line
	s.streak = 0
	return false
}

// streamAt returns the stream tracking page, if any. The page+1 == 0
// guard keeps an underflowed neighbour index (page 0 minus one) from
// matching empty slots, mirroring refTrainStream's page != 0 guard.
func (t *Thread) streamAt(page uint64) *stream {
	if page+1 == 0 {
		return nil
	}
	i := page & (nStreams - 1)
	if s := &t.streams[2*i]; s.pageKey == page+1 {
		return s
	}
	if s := &t.streams[2*i+1]; s.pageKey == page+1 {
		return s
	}
	return nil
}

// ResetMemoryState clears caches, TLBs and the prefetcher table (cold
// start). Counters and the clock are preserved.
func (t *Thread) ResetMemoryState() {
	if t.ref != nil {
		t.ref.reset()
	} else {
		t.l1.Reset()
		t.l2.Reset()
		t.l3.Reset()
		t.dtlb.Reset()
		t.stlb.Reset()
	}
	t.streams = [2 * nStreams]stream{}
	t.mruWay = [nStreams]uint8{}
	t.pwc = [pwcEntries]uint64{}
	t.lastPage = noPage
	t.mruLine = noPage
	for i := range t.mlp {
		t.mlp[i] = 0
	}
	for i := range t.sbuf {
		t.sbuf[i] = 0
	}
	t.storeBarrier = 0
	t.resetEPCState()
}
