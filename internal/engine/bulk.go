package engine

import "sgxbench/internal/mem"

// Bulk (batched) memory APIs. Each call charges a run of N sequential
// accesses in one engine invocation, amortizing the host-side cost of the
// simulation: range checking, buffer placement resolution, stream
// training and address translation fold into per-run and per-page strides
// instead of per-op probes. On a reference thread every run API hands
// over to its decomposition into per-op Load/Store calls (refLoadRun,
// refStoreRun); the two produce bit-identical simulated statistics and
// state, which the golden tests assert.

// LoadRun charges n loads of elem bytes each at consecutive offsets
// off, off+elem, ..., off+(n-1)*elem. dep is the address dependency of
// every element (zero for statically known addresses, as in a sequential
// scan). It returns the token of the last element's value.
func (t *Thread) LoadRun(b *mem.Buffer, off, elem int64, n int, dep Tok) Tok {
	if n <= 0 {
		return dep
	}
	t.checkRange(b, off, elem*int64(n))
	if t.ref != nil {
		return t.refLoadRun(b, off, elem, n, dep, nil)
	}
	return t.fastLoadRun(b, off, elem, n, dep, nil)
}

// LoadRunToks is LoadRun but records each element's completion token in
// toks[:n] (used by the unroll+reorder kernels, which need per-element
// dataflow tokens for the dependent stores they group behind the loads).
func (t *Thread) LoadRunToks(b *mem.Buffer, off, elem int64, n int, dep Tok, toks []Tok) {
	if n <= 0 {
		return
	}
	t.checkRange(b, off, elem*int64(n))
	if t.ref != nil {
		t.refLoadRun(b, off, elem, n, dep, toks)
		return
	}
	t.fastLoadRun(b, off, elem, n, dep, toks)
}

// clampLines range-checks a line-granular run and clamps it to lines
// that actually start inside the buffer, so an over-long nLines cannot
// simulate nonexistent lines (a per-line reference decomposition would
// panic on them). Shared by LoadLines and StoreLinesNT.
func (t *Thread) clampLines(b *mem.Buffer, off int64, nLines int) int {
	span := b.Size - off
	if span > int64(nLines)*64 {
		span = int64(nLines) * 64
	}
	t.checkRange(b, off, span)
	if maxLines := int((span + 63) / 64); nLines > maxLines {
		nLines = maxLines
	}
	return nLines
}

// LoadLines charges nLines full cache-line (64-byte vector) loads
// starting at byte offset off; the final line is clamped to the buffer
// end, mirroring LoadLine. This is the scan hot-path primitive: one call
// charges a whole block of a sequential scan.
func (t *Thread) LoadLines(b *mem.Buffer, off int64, nLines int, dep Tok) Tok {
	if nLines <= 0 {
		return dep
	}
	nLines = t.clampLines(b, off, nLines)
	if t.ref != nil {
		return t.refLoadRun(b, off, 64, nLines, dep, nil)
	}
	return t.fastLoadRun(b, off, 64, nLines, dep, nil)
}

// fastLoadRun is the batched fast path shared by the Load* bulk APIs: one
// tight loop whose per-element state transitions are exactly those of
// loadAt, with the run-invariant work hoisted — buffer placement, the
// pacing latency, and the prefetcher stream slot, which a sequential run
// keeps extending without re-resolving. Elements that re-touch the
// previous element's line (sub-line strides: 8 loads of an 8-byte run
// share one line) coalesce into the MRU line memo's repeat path, so only
// line transitions pay a probe.
func (t *Thread) fastLoadRun(b *mem.Buffer, off, elem int64, n int, dep Tok, toks []Tok) Tok {
	addr := b.Base + uint64(off)
	step := uint64(elem)
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	paced := t.pacedAdvance(epc, remote)
	paging := t.epcDom != nil && epc
	t.st.Loads += uint64(n)
	var done Tok
	var sl *stream // stream slot the run is extending (nil: re-resolve)
	for i := 0; i < n; i++ {
		if paging {
			t.epcTouch(addr >> t.pageShift)
		}
		issue := Tok(t.issueTick())
		if dep > issue {
			issue = dep
		}
		issue = t.loadGate(issue)
		line := addr >> 6
		if line == t.mruLine {
			// Same-line repeat: guaranteed L1-MRU hit, no state change.
			t.st.L1Hits++
			done = issue + Tok(t.latL1)
			if toks != nil {
				toks[i] = done
			}
			addr += step
			continue
		}
		// Stream training: within the run only this loop touches the
		// table, so the current page's slot stays valid until the run
		// crosses into the next page.
		var inStream, trained bool
		if sl != nil && sl.pageKey == (line>>t.lpShift)+1 {
			switch line - sl.lastLine {
			case 0:
				inStream, trained = sl.streak >= 2, true
			case 1:
				sl.streak++
				sl.lastLine = line
				inStream, trained = sl.streak >= 2, true
			}
		}
		if !trained {
			inStream = t.trainStream(addr)
			sl = t.streamAt(line >> t.lpShift)
		}
		// Translation (one-entry page cache; runs re-translate per page).
		var tlbLat uint64
		page := addr >> t.pageShift
		if page != t.lastPage {
			tlbLat = t.fastTranslate(page, b)
		}
		t.mruLine = line
		// Fused hierarchy walk.
		if hit, _, _, _ := t.l1.AccessOrFillStream(line, false); hit {
			t.st.L1Hits++
			done = issue + Tok(tlbLat+t.latL1)
		} else if hit, _, _, _ := t.l2.AccessOrFillStream(line, false); hit {
			t.st.L2Hits++
			done = issue + Tok(tlbLat+t.latL2)
		} else if hit, _, dirty, ok := t.l3.AccessOrFillStream(line, false); hit {
			t.st.L3Hits++
			done = issue + Tok(tlbLat+t.latL3)
		} else {
			dl := t.dramFill(false, node, epc, remote, ok && dirty)
			t.st.DRAMAcc++
			if inStream {
				t.st.StreamFills++
				t.cycle = uint64(issue) + paced
				done = Tok(t.cycle)
			} else {
				t.st.RandomFills++
				slot := t.minSlot()
				start := maxTok(issue, Tok(t.mlp[slot]))
				done = start + Tok(tlbLat+dl)
				t.mlp[slot] = uint64(done)
			}
		}
		if toks != nil {
			toks[i] = done
		}
		addr += step
	}
	return done
}

// StoreLinesNT charges nLines sequential non-temporal full-line stores
// starting at byte offset off — write-combining streaming stores
// (movntdq): each line bypasses the cache hierarchy entirely (no
// allocation, no read-for-ownership) and drains to DRAM at stream
// bandwidth. This is how vectorized kernels materialize large results
// (compressed scan output, radix-partition flushes) without polluting
// the caches; the address is still translated, so TLB state and page
// walks are charged exactly as for cached stores, with the walk latency
// hidden behind the stream like any paced access. The final line is
// clamped to the buffer end. Returns the drain token of the last line.
//
// Model simplification (shared by both engine paths): an NT store does
// not invalidate a stale cached copy of its line, so a kernel that reads
// a region through the caches, overwrites it with StoreLinesNT and then
// re-reads it would see cache hits where hardware evicts and re-fetches.
// No kernel does this today — NT stores are used for write-once result
// streams (scan output, partition flushes) whose lines were never cached
// before the store.
func (t *Thread) StoreLinesNT(b *mem.Buffer, off int64, nLines int, addrDep, dataDep Tok) Tok {
	if nLines <= 0 {
		return dataDep
	}
	nLines = t.clampLines(b, off, nLines)
	addr := b.Base + uint64(off)
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	paced := t.pacedAdvance(epc, remote)
	lineBytes := uint64(t.Plat.L1D.LineBytes)
	bNode := node
	if bNode < 0 || bNode > 1 {
		bNode = 0
	}
	paging := t.epcDom != nil && epc
	t.st.Stores += uint64(nLines)
	t.st.NTStores += uint64(nLines)
	for i := 0; i < nLines; i++ {
		// This loop is the reference decomposition too, so the touch order
		// is identical by construction.
		if paging {
			t.epcTouch(addr >> t.pageShift)
		}
		issue := Tok(t.issueTick())
		addrKnown := maxTok(issue, addrDep)
		if uint64(addrKnown) > t.storeBarrier {
			t.storeBarrier = uint64(addrKnown)
		}
		// Translation state advances as for any store; the latency hides
		// behind the stream (the paced-access discipline).
		page := addr >> t.pageShift
		if t.ref != nil {
			t.refTranslateNT(page, node, epc, remote)
		} else if page != t.lastPage {
			t.fastTranslate(page, b)
			// A walk's PTE/EPCM fetches may have touched the hierarchy,
			// so the MRU line memo can no longer vouch for its line (no
			// data access follows to re-establish it).
			t.mruLine = noPage
		}
		t.st.DRAMBytes[bNode] += lineBytes
		if remote {
			t.st.UPIBytes += lineBytes
		}
		ready := maxTok(addrKnown, dataDep)
		if c := uint64(ready) + paced; c > t.cycle {
			t.cycle = c
		} else {
			t.cycle += paced
		}
		addr += 64
	}
	return Tok(t.cycle)
}

// StoreRun charges n stores of elem bytes each at consecutive offsets.
// addrDep and dataDep apply to every element (sequential result writes
// have statically known addresses, so addrDep is normally zero). It
// returns the forwarding token of the last store.
func (t *Thread) StoreRun(b *mem.Buffer, off, elem int64, n int, addrDep, dataDep Tok) Tok {
	if n <= 0 {
		return dataDep
	}
	t.checkRange(b, off, elem*int64(n))
	if t.ref != nil {
		return t.refStoreRun(b, off, elem, n, addrDep, dataDep)
	}
	addr := b.Base + uint64(off)
	step := uint64(elem)
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	pacedLat := t.pacedAdvance(epc, remote)
	paging := t.epcDom != nil && epc
	t.st.Stores += uint64(n)
	var fwd Tok
	var sl *stream
	for i := 0; i < n; i++ {
		if paging {
			t.epcTouch(addr >> t.pageShift)
		}
		issue := Tok(t.issueTick())
		addrKnown := maxTok(issue, addrDep)
		if uint64(addrKnown) > t.storeBarrier {
			t.storeBarrier = uint64(addrKnown)
		}
		line := addr >> 6
		ready := maxTok(addrKnown, dataDep)
		if line == t.mruLine {
			// Same-line repeat: guaranteed L1-MRU hit; only the dirty bit
			// can change, and only for the run's first element (a repeat
			// at i > 0 follows this run's own store to the line, which
			// already dirtied it — a repeat at i == 0 may follow a load).
			if i == 0 {
				t.l1.DirtyMRU(line)
			}
			t.st.L1Hits++
			done := ready + Tok(t.latL1)
			if t.sbuf[t.sbufPos] > t.cycle {
				t.cycle = t.sbuf[t.sbufPos]
			}
			t.sbuf[t.sbufPos] = uint64(done)
			if t.sbufPos++; t.sbufPos == len(t.sbuf) {
				t.sbufPos = 0
			}
			fwd = maxTok(ready, dataDep) + 5
			addr += step
			continue
		}
		var inStream, trained bool
		if sl != nil && sl.pageKey == (line>>t.lpShift)+1 {
			switch line - sl.lastLine {
			case 0:
				inStream, trained = sl.streak >= 2, true
			case 1:
				sl.streak++
				sl.lastLine = line
				inStream, trained = sl.streak >= 2, true
			}
		}
		if !trained {
			inStream = t.trainStream(addr)
			sl = t.streamAt(line >> t.lpShift)
		}
		var tlbLat uint64
		page := addr >> t.pageShift
		if page != t.lastPage {
			tlbLat = t.fastTranslate(page, b)
		}
		t.mruLine = line
		var done Tok
		if hit, _, _, _ := t.l1.AccessOrFillStream(line, true); hit {
			t.st.L1Hits++
			done = ready + Tok(tlbLat+t.latL1)
		} else if hit, _, _, _ := t.l2.AccessOrFillStream(line, true); hit {
			t.st.L2Hits++
			done = ready + Tok(tlbLat+t.latL2)
		} else if hit, _, dirty, ok := t.l3.AccessOrFillStream(line, true); hit {
			t.st.L3Hits++
			done = ready + Tok(tlbLat+t.latL3)
		} else {
			dl := t.dramFill(true, node, epc, remote, ok && dirty)
			t.st.DRAMAcc++
			if inStream {
				t.st.StreamFills++
				t.cycle = uint64(issue) + pacedLat
				done = maxTok(ready, Tok(t.cycle))
			} else {
				t.st.RandomFills++
				slot := t.minSlot()
				start := maxTok(ready, Tok(t.mlp[slot]))
				done = start + Tok(tlbLat+dl)
				t.mlp[slot] = uint64(done)
			}
		}
		if t.sbuf[t.sbufPos] > t.cycle {
			t.cycle = t.sbuf[t.sbufPos]
		}
		t.sbuf[t.sbufPos] = uint64(done)
		if t.sbufPos++; t.sbufPos == len(t.sbuf) {
			t.sbufPos = 0
		}
		fwd = maxTok(ready, dataDep) + 5
		addr += step
	}
	return fwd
}

// loadAt is the single per-access load primitive under Load, CAS and every
// gather/scatter API: the issue, gating, stream-training, translation,
// hierarchy walk and completion accounting of one load in a single
// function, with the identical state transition to refLoad, to which a
// reference thread hands over on the first line. The caller has
// range-checked the access and resolved the buffer placement (node, epc,
// remote), so batched invocations hoist that out of their loops.
func (t *Thread) loadAt(b *mem.Buffer, addr uint64, node int, epc, remote bool, dep Tok) Tok {
	if t.ref != nil {
		return t.refLoad(b, addr, dep)
	}
	if t.epcDom != nil && epc {
		t.epcTouch(addr >> t.pageShift)
	}
	issue := Tok(t.issueTick())
	if dep > issue {
		issue = dep
	}
	issue = t.loadGate(issue)
	t.st.Loads++
	line := addr >> 6
	if line == t.mruLine {
		// Same-line repeat: guaranteed L1-MRU hit, no state change.
		t.st.L1Hits++
		return issue + Tok(t.latL1)
	}
	inStream := t.trainStream(addr)
	var tlbLat uint64
	page := addr >> t.pageShift
	if page != t.lastPage {
		tlbLat = t.fastTranslate(page, b)
	}
	t.mruLine = line
	if hit, _, _, _ := t.l1.AccessOrFill(line, false); hit {
		t.st.L1Hits++
		return issue + Tok(tlbLat+t.latL1)
	}
	if hit, _, _, _ := t.l2.AccessOrFill(line, false); hit {
		t.st.L2Hits++
		return issue + Tok(tlbLat+t.latL2)
	}
	hit, _, dirty, ok := t.l3.AccessOrFill(line, false)
	if hit {
		t.st.L3Hits++
		return issue + Tok(tlbLat+t.latL3)
	}
	dl := t.dramFill(false, node, epc, remote, ok && dirty)
	t.st.DRAMAcc++
	if inStream {
		t.st.StreamFills++
		t.cycle = uint64(issue) + t.pacedAdvance(epc, remote)
		return Tok(t.cycle)
	}
	t.st.RandomFills++
	slot := t.minSlot()
	start := maxTok(issue, Tok(t.mlp[slot]))
	done := start + Tok(tlbLat+dl)
	t.mlp[slot] = uint64(done)
	return done
}

// storeAt is the store counterpart of loadAt, the single per-access store
// primitive under Store, CAS, StoreScatter, RMWScatter and CASLoad; a
// reference thread hands over to refStore.
func (t *Thread) storeAt(b *mem.Buffer, addr uint64, node int, epc, remote bool, addrDep, dataDep Tok) Tok {
	if t.ref != nil {
		return t.refStore(b, addr, addrDep, dataDep)
	}
	if t.epcDom != nil && epc {
		t.epcTouch(addr >> t.pageShift)
	}
	issue := Tok(t.issueTick())
	addrKnown := maxTok(issue, addrDep)
	if uint64(addrKnown) > t.storeBarrier {
		t.storeBarrier = uint64(addrKnown)
	}
	t.st.Stores++
	ready := maxTok(addrKnown, dataDep)
	var done Tok
	line := addr >> 6
	if line == t.mruLine {
		// Same-line repeat: guaranteed L1-MRU hit; the only state change
		// is the dirty bit (the preceding access may have been a load).
		t.l1.DirtyMRU(line)
		t.st.L1Hits++
		done = ready + Tok(t.latL1)
	} else {
		inStream := t.trainStream(addr)
		var tlbLat uint64
		page := addr >> t.pageShift
		if page != t.lastPage {
			tlbLat = t.fastTranslate(page, b)
		}
		t.mruLine = line
		if hit, _, _, _ := t.l1.AccessOrFill(line, true); hit {
			t.st.L1Hits++
			done = ready + Tok(tlbLat+t.latL1)
		} else if hit, _, _, _ := t.l2.AccessOrFill(line, true); hit {
			t.st.L2Hits++
			done = ready + Tok(tlbLat+t.latL2)
		} else if hit, _, dirty, ok := t.l3.AccessOrFill(line, true); hit {
			t.st.L3Hits++
			done = ready + Tok(tlbLat+t.latL3)
		} else {
			dl := t.dramFill(true, node, epc, remote, ok && dirty)
			t.st.DRAMAcc++
			if inStream {
				t.st.StreamFills++
				t.cycle = uint64(issue) + t.pacedAdvance(epc, remote)
				done = maxTok(ready, Tok(t.cycle))
			} else {
				t.st.RandomFills++
				slot := t.minSlot()
				start := maxTok(ready, Tok(t.mlp[slot]))
				done = start + Tok(tlbLat+dl)
				t.mlp[slot] = uint64(done)
			}
		}
	}
	if t.sbuf[t.sbufPos] > t.cycle {
		t.cycle = t.sbuf[t.sbufPos]
	}
	t.sbuf[t.sbufPos] = uint64(done)
	if t.sbufPos++; t.sbufPos == len(t.sbuf) {
		t.sbufPos = 0
	}
	return maxTok(ready, dataDep) + 5
}
