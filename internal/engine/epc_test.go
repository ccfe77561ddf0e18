package engine_test

import (
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
)

// TestEPCPagingGoldenEquivalence enforces the fast-path invariant on the
// demand-paging model: under every execution setting, replaying the mixed
// gather/scatter/run trace on an EPC-oversubscribed thread must produce
// bit-identical tokens and statistics — including the fault and eviction
// counters — between the per-op reference engine and the batched fast
// engine. Only the DiE setting places data in the EPC, so only it may
// fault; the others must stay paging-free even with a domain configured.
func TestEPCPagingGoldenEquivalence(t *testing.T) {
	plat := platform.XeonGold6326().Scaled(256)
	for _, s := range gatherSettings() {
		run := func(ref bool) (uint64, engine.Stats, uint64) {
			sp := mem.NewSpace(plat.Sockets)
			reg := mem.Region{Node: 0, Kind: s.kind}
			big := sp.Alloc("big", 1<<20, reg)
			small := sp.Alloc("small", 1<<12, reg)
			dom := &engine.EPCDomain{TotalPages: 64, PageInCycles: 12000, PageOutCycles: 8000}
			th := engine.NewThread(engine.Config{
				Plat: plat, Mode: s.mode, Costs: engine.DefaultSGXCosts(),
				Reference: ref, EPC: dom,
			}, 0)
			sum := traceThread(th, &big, &small)
			return sum, th.Stats(), dom.SerialCycles()
		}
		refSum, refStats, refSerial := run(true)
		fastSum, fastStats, fastSerial := run(false)
		if refSum != fastSum {
			t.Errorf("%s: token checksum ref=%d fast=%d", s.name, refSum, fastSum)
		}
		if refStats != fastStats {
			t.Errorf("%s: stats differ\nref:  %+v\nfast: %+v", s.name, refStats, fastStats)
		}
		if refSerial != fastSerial {
			t.Errorf("%s: serialized paging cycles ref=%d fast=%d", s.name, refSerial, fastSerial)
		}
		if s.kind == mem.EPC {
			if refStats.EPCFaults == 0 || refStats.EPCEvictions == 0 {
				t.Errorf("%s: oversubscribed trace did not page (faults=%d evictions=%d)",
					s.name, refStats.EPCFaults, refStats.EPCEvictions)
			}
			if refSerial == 0 {
				t.Errorf("%s: faults accumulated no serialized cycles", s.name)
			}
		} else if refStats.EPCFaults != 0 || refStats.EPCEvictions != 0 || refStats.EPCPagingCycles != 0 {
			t.Errorf("%s: non-EPC data paged: %+v", s.name, refStats)
		}
	}
}

// epcThread builds a single DiE thread over a domain with the given page
// budget and per-fault costs, plus an EPC buffer of nPages pages.
func epcThread(budget int64, nPages int) (*engine.Thread, mem.Buffer, *engine.EPCDomain) {
	plat := platform.XeonGold6326().Scaled(256)
	sp := mem.NewSpace(plat.Sockets)
	buf := sp.Alloc("epc", int64(nPages)*4096, mem.Region{Node: 0, Kind: mem.EPC})
	dom := &engine.EPCDomain{TotalPages: budget, PageInCycles: 100, PageOutCycles: 10}
	th := engine.NewThread(engine.Config{
		Plat: plat, Mode: engine.Enclave, Costs: engine.DefaultSGXCosts(), EPC: dom,
	}, 0)
	return th, buf, dom
}

// touchPage issues one 8-byte load on page p of buf.
func touchPage(th *engine.Thread, buf *mem.Buffer, p int) {
	th.Load(buf, int64(p)*4096, 8, 0)
}

// TestEPCClockReplacement pins the CLOCK (second-chance) policy's exact
// fault and eviction sequence on a 2-page budget: a re-referenced page
// survives a streaming page's eviction sweep, an un-referenced one does
// not.
func TestEPCClockReplacement(t *testing.T) {
	th, buf, dom := epcThread(2, 8)
	check := func(step string, faults, evictions uint64, resident int) {
		t.Helper()
		s := th.Stats()
		if s.EPCFaults != faults || s.EPCEvictions != evictions || th.EPCResident() != resident {
			t.Fatalf("%s: faults=%d evictions=%d resident=%d, want %d/%d/%d",
				step, s.EPCFaults, s.EPCEvictions, th.EPCResident(), faults, evictions, resident)
		}
	}
	touchPage(th, &buf, 0) // fault, fill slot 0
	touchPage(th, &buf, 1) // fault, fill slot 1
	check("fill", 2, 0, 2)
	touchPage(th, &buf, 0) // re-reference page 0: sets its CLOCK bit
	touchPage(th, &buf, 2) // fault: hand at slot 0, ref'd -> second chance; evicts page 1
	check("second chance", 3, 1, 2)
	touchPage(th, &buf, 0) // page 0 survived the sweep: no fault
	check("hot page survived", 3, 1, 2)
	touchPage(th, &buf, 1) // page 1 was evicted: faults back in, evicting page 0
	check("cold page refaulted", 4, 2, 2)
	if got := th.Stats().EPCPagingCycles; got != 4*100+2*10 {
		t.Fatalf("paging cycles = %d, want %d", got, 4*100+2*10)
	}
	if got := dom.SerialCycles(); got != 4*100+2*10 {
		t.Fatalf("serial cycles = %d, want %d", got, 4*100+2*10)
	}
	if got := dom.SerialCycles(); got != 0 {
		t.Fatalf("SerialCycles did not reset: %d", got)
	}
	if th.EPCBudgetPages() != 2 {
		t.Fatalf("budget = %d, want 2", th.EPCBudgetPages())
	}
}

// TestEPCSequentialAmortizes checks the page-granular amortization that
// makes spilled (streaming) access the graceful mode: a sequential scan
// over N pages faults exactly N times regardless of how many accesses
// land on each page.
func TestEPCSequentialAmortizes(t *testing.T) {
	th, buf, _ := epcThread(4, 16)
	th.LoadRun(&buf, 0, 8, 16*4096/8, 0)
	th.Drain()
	s := th.Stats()
	if s.EPCFaults != 16 {
		t.Fatalf("sequential scan over 16 pages faulted %d times, want 16", s.EPCFaults)
	}
	if s.EPCEvictions != 12 {
		t.Fatalf("evictions = %d, want 12 (16 pages through a 4-page budget)", s.EPCEvictions)
	}
}
