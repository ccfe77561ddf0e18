package engine

import "sync/atomic"

// EPC oversubscription model. Real SGXv2 machines cap the Enclave Page
// Cache at a fraction of DRAM; when an enclave's working set exceeds it,
// the kernel demand-pages EPC pages to untrusted memory — an encrypted
// write-back (EWB) per victim and an ELDU load per fault, each a kernel
// round trip orders of magnitude more expensive than a TLB miss. The
// DuckDB-SGX2 study calls this regime "the ugly": operators whose access
// pattern cycles a working set larger than the EPC collapse by orders of
// magnitude, while partitioned operators that stage work through
// enclave-resident chunks degrade smoothly.
//
// The model is deliberately software-visible only, like the rest of the
// sgx layer: a finite budget of resident 4 KiB pages per thread, a CLOCK
// (second-chance) replacement policy over them, and per-fault costs
// charged to the faulting thread. Like EDMM page commits, the kernel
// serializes paging across the enclave on the page-table lock, so every
// fault's cycles also accumulate in the domain's serial counter, which
// the phase runner folds into wall time (exec.Group.Phase).
//
// Residency is tracked per thread over TotalPages/EPCShare: each thread
// demand-pages its own partition of the EPC independently. This is a
// determinism-motivated simplification — a shared resident set would make
// fault counts depend on the goroutine interleaving — and matches how the
// operators use the budget: spill-partitioned operators size their chunks
// against the per-thread share.

// EPCDomain is the shared EPC capacity of one enclave. Construct one with
// sgx.NewEPCDomain and pass it to every thread of the enclave via
// Config.EPC; a nil domain (or zero TotalPages) disables paging.
type EPCDomain struct {
	// TotalPages is the enclave's EPC capacity in 4 KiB pages.
	TotalPages int64
	// PageInCycles is charged for every fault: the AEX, the kernel ELDU
	// path decrypting and verifying the page, and the TLB refill.
	PageInCycles uint64
	// PageOutCycles is additionally charged when the fault must evict: the
	// EWB encrypted write-back of the victim plus its TLB shootdown.
	PageOutCycles uint64

	serial atomic.Uint64 // kernel-serialized paging cycles
}

// SerialCycles returns the serialized paging cycles accumulated since the
// last call and resets the counter. The phase runner folds this into wall
// time: paging serializes on the enclave's page-table lock.
func (d *EPCDomain) SerialCycles() uint64 {
	if d == nil {
		return 0
	}
	return d.serial.Swap(0)
}

// epcTouch records an access to an EPC data page, faulting it in (and
// evicting a victim) if it is not resident. Called at the very start of
// every data access on both engine paths, before the issue clock is read,
// so the fault cycles are visible to the access's own timing — including
// bandwidth-paced accesses, which overwrite the clock relative to their
// issue point.
//
// Equivalence invariant: a touch of a resident page only sets that page's
// CLOCK reference bit, and the one-entry epcLast memo guarantees the page
// was touched by the immediately preceding access whenever the fast path
// skips work for a same-line repeat — so the skipped re-touch would have
// been an idempotent no-op. That is what keeps fault and eviction counts
// bit-identical between the per-op reference path and the batched fast
// path. CLOCK (not FIFO) matters for the spill operators: their hash-table
// scratch pages are re-referenced between sweeps and survive the streaming
// probe traffic, which is exactly the hot-set protection second-chance
// replacement exists for.
func (t *Thread) epcTouch(page uint64) {
	if page == t.epcLast {
		return
	}
	t.epcLast = page
	if i, ok := t.epcIdx[page]; ok {
		t.epcRef[i] = true
		return
	}
	d := t.epcDom
	cost := d.PageInCycles
	var slot int
	if t.epcCount < len(t.epcRing) {
		slot = t.epcCount
		t.epcCount++
	} else {
		// CLOCK sweep: clear reference bits until an unreferenced victim
		// turns up. Terminates within one lap — a cleared slot is a victim
		// on revisit.
		for t.epcRef[t.epcHand] {
			t.epcRef[t.epcHand] = false
			if t.epcHand++; t.epcHand == len(t.epcRing) {
				t.epcHand = 0
			}
		}
		slot = t.epcHand
		delete(t.epcIdx, t.epcRing[slot])
		t.st.EPCEvictions++
		cost += d.PageOutCycles
		if t.epcHand++; t.epcHand == len(t.epcRing) {
			t.epcHand = 0
		}
	}
	// Insert unreferenced: the epcLast memo absorbs the fault's own access
	// run, so only a later return to the page sets its reference bit —
	// streamed-once pages stay unreferenced and are evicted first.
	t.epcRing[slot] = page
	t.epcRef[slot] = false
	t.epcIdx[page] = slot
	t.st.EPCFaults++
	t.st.EPCPagingCycles += cost
	t.cycle += cost
	d.serial.Add(cost)
}
