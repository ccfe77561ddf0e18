package sgx_test

import (
	"testing"

	"sgxbench/internal/sgx"
)

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

// TestQueueModelPass pins the one contention rule at the default costs:
// a pass on a free lock (including one freed exactly at arrival) costs
// the critical section; a pass on a held lock starts after the hold plus
// the sleep latency and holds for the section plus the extension.
func TestQueueModelPass(t *testing.T) {
	c := sgx.DefaultOSCosts()
	for _, tc := range []struct {
		q                    sgx.QueueModel
		uncontended, contend uint64 // Pass(1000, 500) and Pass(1000, 1200)
	}{
		{sgx.LockFreeQueue(c), 1030, 1200 + 30},
		{sgx.SpinlockQueue(c), 1100, 1200 + 100},
		{sgx.PlainMutexQueue(c), 1100, 1200 + 1500 + 100},
		{sgx.SGXMutexQueue(c), 1100, 1200 + 16000 + 100 + 16000},
	} {
		if got := tc.q.Pass(1000, 500); got != tc.uncontended {
			t.Errorf("%s: uncontended pass ends at %d, want %d", tc.q.Name, got, tc.uncontended)
		}
		if got := tc.q.Pass(1000, 1000); got != tc.uncontended {
			t.Errorf("%s: pass on a lock freed at arrival ends at %d, want %d", tc.q.Name, got, tc.uncontended)
		}
		if got := tc.q.Pass(1000, 1200); got != tc.contend {
			t.Errorf("%s: contended pass ends at %d, want %d", tc.q.Name, got, tc.contend)
		}
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
