package sgx_test

import (
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/sgx"
)

func newThread() *engine.Thread {
	return engine.NewThread(engine.Config{
		Plat: platform.XeonGold6326().Scaled(256), Mode: engine.Enclave, Costs: engine.DefaultSGXCosts(),
	}, 0)
}

// TestAllocatorPolicies: every policy commits the same page-rounded
// bytes to the region; only DynamicOS and EnclaveEDMM charge the
// allocating thread per page, only EDMM accumulates serialized cycles,
// and setup allocations (nil thread) are free under every policy.
func TestAllocatorPolicies(t *testing.T) {
	c := sgx.DefaultOSCosts()
	const (
		words = 1000       // AllocU64: 8 000 bytes, 2 pages
		raw   = 3*4096 + 1 // Raw: 4 pages
		pages = 2 + 4
	)
	for _, tc := range []struct {
		policy  sgx.AllocPolicy
		perPage uint64 // Work charged to the thread per page
		serial  uint64 // SerialCycles per page
	}{
		{sgx.PreAllocated, 0, 0},
		{sgx.DynamicOS, c.MinorFault, 0},
		{sgx.EnclaveStatic, 0, 0},
		{sgx.EnclaveEDMM, c.EDMMPage, c.EDMMPage},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			sp := mem.NewSpace(1)
			reg := mem.Region{Node: 0, Kind: mem.EPC}
			a := sgx.NewAllocator(sp, reg, tc.policy, c)

			// Setup-time allocations are free.
			a.AllocU64(nil, "setup", words)
			a.Raw(nil, "setup.raw", raw)
			if got := a.SerialCycles(); got != 0 {
				t.Errorf("nil-thread allocations accumulated %d serial cycles", got)
			}
			if got, want := sp.Used(reg), int64(pages*4096); got != want {
				t.Errorf("setup committed %d bytes, want %d", got, want)
			}

			th := newThread()
			before := th.Stats()
			if b := a.AllocU64(th, "run", words); len(b.D) != words || b.Reg != reg {
				t.Errorf("AllocU64 returned %d words in %+v, want %d in %+v", len(b.D), b.Reg, words, reg)
			}
			if b := a.Raw(th, "run.raw", raw); b.Size != raw || b.Reg != reg {
				t.Errorf("Raw returned %d bytes in %+v, want %d in %+v", b.Size, b.Reg, raw, reg)
			}
			d := th.Stats().Sub(before)
			if want := pages * tc.perPage; d.WorkCycles != want {
				t.Errorf("thread charged %d work cycles, want %d (%d pages × %d)", d.WorkCycles, want, pages, tc.perPage)
			}
			if d.Loads+d.Stores != 0 {
				t.Errorf("allocation issued %d loads and %d stores, want none", d.Loads, d.Stores)
			}
			if got, want := sp.Used(reg), int64(2*pages*4096); got != want {
				t.Errorf("region holds %d bytes, want %d", got, want)
			}
			if got, want := a.SerialCycles(), pages*tc.serial; got != want {
				t.Errorf("SerialCycles = %d, want %d", got, want)
			}
		})
	}
}

// TestSerialCyclesDrains: SerialCycles returns the EDMM commits of every
// allocation since the last call, once, then 0.
func TestSerialCyclesDrains(t *testing.T) {
	c := sgx.DefaultOSCosts()
	a := sgx.NewAllocator(mem.NewSpace(1), mem.Region{Kind: mem.EPC}, sgx.EnclaveEDMM, c)
	th := newThread()
	a.Raw(th, "a", 4096)   // 1 page
	a.Raw(th, "b", 2*4096) // 2 pages
	if got, want := a.SerialCycles(), 3*c.EDMMPage; got != want {
		t.Errorf("first SerialCycles = %d, want %d", got, want)
	}
	if got := a.SerialCycles(); got != 0 {
		t.Errorf("second SerialCycles = %d, want 0", got)
	}
	a.Raw(th, "c", 1)
	if got, want := a.SerialCycles(), c.EDMMPage; got != want {
		t.Errorf("SerialCycles after a 1-byte allocation = %d, want %d", got, want)
	}
}

func TestAllocPolicyString(t *testing.T) {
	for p, want := range map[sgx.AllocPolicy]string{
		sgx.PreAllocated:    "pre-allocated",
		sgx.DynamicOS:       "dynamic (OS)",
		sgx.EnclaveStatic:   "static enclave size",
		sgx.EnclaveEDMM:     "dynamic enclave size (EDMM)",
		sgx.AllocPolicy(7):  "AllocPolicy(7)",
		sgx.AllocPolicy(-1): "AllocPolicy(-1)",
	} {
		if got := p.String(); got != want {
			t.Errorf("AllocPolicy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// TestQueueModelOrdering: a contended handover (the critical section plus
// what the lock adds while waiters sleep and wake) costs least for the
// lock-free queue and most for the SGX SDK mutex, whose wake-ups need
// enclave transitions (Fig 11); only the SDK mutex extends its hold.
func TestQueueModelOrdering(t *testing.T) {
	c := sgx.DefaultOSCosts()
	handover := func(q sgx.QueueModel) uint64 { return q.PopCycles + q.HoldExtension + q.SleepLatency }
	order := []sgx.QueueModel{sgx.LockFreeQueue(c), sgx.SpinlockQueue(c), sgx.PlainMutexQueue(c), sgx.SGXMutexQueue(c)}
	for i := 1; i < len(order); i++ {
		if a, b := order[i-1], order[i]; handover(a) >= handover(b) {
			t.Errorf("%s handover %d not below %s's %d", a.Name, handover(a), b.Name, handover(b))
		}
	}
	names := map[string]bool{}
	for _, q := range order {
		names[q.Name] = true
		if q.PopCycles == 0 {
			t.Errorf("%s: zero critical section", q.Name)
		}
		if sdk := q.Name == sgx.SGXMutexQueue(c).Name; (q.HoldExtension > 0) != sdk {
			t.Errorf("%s: HoldExtension %d", q.Name, q.HoldExtension)
		}
	}
	if len(names) != len(order) {
		t.Errorf("queue model names are not distinct: %v", names)
	}
	if sdk := sgx.SGXMutexQueue(c); sdk.HoldExtension != 2*c.Transition || sdk.SleepLatency != 2*c.Transition {
		t.Errorf("SDK mutex = %+v, want a transition round trip (%d) on hold and sleep", sdk, 2*c.Transition)
	}
}

// TestNewEPCDomain: a non-positive capacity disables paging; a positive
// one carries the OS page-in and page-out costs.
func TestNewEPCDomain(t *testing.T) {
	c := sgx.DefaultOSCosts()
	for _, capPages := range []int64{0, -1} {
		if d := sgx.NewEPCDomain(capPages, c); d != nil {
			t.Errorf("NewEPCDomain(%d) = %+v, want nil", capPages, d)
		}
	}
	d := sgx.NewEPCDomain(64, c)
	if d == nil || d.TotalPages != 64 || d.PageInCycles != c.EPCPageIn || d.PageOutCycles != c.EPCPageOut {
		t.Errorf("NewEPCDomain(64) = %+v", d)
	}
}
