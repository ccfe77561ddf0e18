// Package sgx models the software-visible costs of the SGXv2 runtime: the
// enclave life cycle, enclave transitions (ECALL/OCALL), Enclave Dynamic
// Memory Management (EDMM) page commits, and the SGX SDK synchronization
// primitives whose transition-based design the paper shows to be
// disastrous under contention (Section 4.4).
//
// Hardware-level memory costs (TME-MK, EPCM checks, UPI encryption) live
// in the engine; this package covers the OS/SDK interaction layer.
package sgx

import "sgxbench/internal/engine"

// OSCosts parameterizes OS- and SDK-level costs (cycles).
type OSCosts struct {
	// Transition is the one-way cost of an enclave transition (EENTER or
	// EEXIT including SDK state save/restore and marshalling).
	Transition uint64
	// EDMMPage is the cost of committing one 4 KiB EPC page at run time:
	// the in-enclave page fault (AEX), the kernel EAUG path, the EACCEPT
	// back inside the enclave, and the TLB shootdown. Commits serialize
	// on the enclave's page-table lock, which is why Fig 12 shows a 95 %
	// throughput collapse for dynamically sized enclaves.
	EDMMPage uint64
	// MinorFault is the cost of a minor page fault for ordinary (plain
	// CPU) dynamic memory allocation.
	MinorFault uint64
	// FutexWake is the wake-up latency a sleeping thread observes with a
	// plain (non-enclave) mutex.
	FutexWake uint64
	// MutexCS is the base critical-section cost of a mutex-protected
	// queue operation.
	MutexCS uint64
	// CASCycles is the cost of a lock-free queue pop (one contended CAS).
	CASCycles uint64
	// EPCPageIn is the cost of demand-paging one 4 KiB EPC page back in
	// when the enclave's working set exceeds the EPC: the AEX on the
	// faulting access, the kernel ELDU path decrypting and integrity-
	// checking the page, and the TLB refill.
	EPCPageIn uint64
	// EPCPageOut is the additional cost when the fault must evict a
	// resident page first: the EWB encrypted write-back and its TLB
	// shootdown. A fault under a full EPC costs EPCPageIn + EPCPageOut.
	EPCPageOut uint64
}

// DefaultOSCosts returns the calibrated cost set.
func DefaultOSCosts() OSCosts {
	return OSCosts{
		Transition: 8000, // ~2.8 us one way
		EDMMPage:   40000,
		MinorFault: 1500,
		FutexWake:  1500,
		MutexCS:    100,
		CASCycles:  30,
		EPCPageIn:  1500,
		EPCPageOut: 800,
	}
}

// NewEPCDomain builds the engine's EPC oversubscription model for an
// enclave with capPages of EPC capacity, parameterized by the OS paging
// costs. capPages <= 0 means "not oversubscribed" and returns nil, which
// disables paging entirely (the pre-oversubscription behaviour of every
// existing workload).
func NewEPCDomain(capPages int64, c OSCosts) *engine.EPCDomain {
	if capPages <= 0 {
		return nil
	}
	return &engine.EPCDomain{
		TotalPages:    capPages,
		PageInCycles:  c.EPCPageIn,
		PageOutCycles: c.EPCPageOut,
	}
}

// QueueModel describes the timing behaviour of a shared task queue's
// synchronization (Fig 11); Pass is its one contention rule.
type QueueModel struct {
	Name string
	// PopCycles is the uncontended critical-section length of one pop.
	PopCycles uint64
	// HoldExtension extends the critical section when waiters are
	// present at unlock time. The SGX SDK mutex keeps the mutex locked
	// while the owner exits the enclave to wake the first waiter and
	// both transition back in (Section 4.4).
	HoldExtension uint64
	// SleepLatency is the additional delay a thread that found the lock
	// taken observes before it can run in the critical section.
	SleepLatency uint64
}

// Pass runs one critical section for a thread arriving at cycle arrive
// on a lock that is next free at lockFree, and returns the cycle the
// section ends, which is also when the lock is free again. Uncontended,
// the pass costs PopCycles. A thread that finds the lock taken waits
// out the current hold plus SleepLatency (futex wake or enclave
// re-entry), and the contended handover extends the hold by
// HoldExtension (the SGX SDK mutex keeps the mutex locked across the
// owner's wake-up transitions, Section 4.4).
func (q QueueModel) Pass(arrive, lockFree uint64) uint64 {
	if arrive < lockFree {
		return lockFree + q.SleepLatency + q.PopCycles + q.HoldExtension
	}
	return arrive + q.PopCycles
}

// LockFreeQueue models a CAS-based queue pop.
func LockFreeQueue(c OSCosts) QueueModel {
	return QueueModel{Name: "lock-free", PopCycles: c.CASCycles}
}

// PlainMutexQueue models a futex-based mutex outside an enclave.
func PlainMutexQueue(c OSCosts) QueueModel {
	return QueueModel{Name: "mutex (plain)", PopCycles: c.MutexCS, SleepLatency: c.FutexWake}
}

// SpinlockQueue models a test-and-set spinlock: waiters burn cycles in
// place, so a contended handover costs only the critical section and the
// lock line's cache transfer — no futex, and crucially no enclave
// transitions, which is why spinning is the viable in-enclave
// alternative to the SDK mutex under contention (Section 4.4).
func SpinlockQueue(c OSCosts) QueueModel {
	return QueueModel{Name: "spinlock", PopCycles: c.MutexCS}
}

// SGXMutexQueue models the SGX SDK mutex: sleeping and waking require
// enclave transitions during which the mutex remains locked.
func SGXMutexQueue(c OSCosts) QueueModel {
	return QueueModel{
		Name:          "mutex (SGX SDK)",
		PopCycles:     c.MutexCS,
		HoldExtension: 2 * c.Transition,
		SleepLatency:  2 * c.Transition,
	}
}
