package serve

import (
	"reflect"

	"sgxbench/internal/agg"
)

// Breakdown accounts where the served requests' cycles went, summed over
// all requests of a scenario. Together with the latency percentiles it
// is the serving-layer analogue of engine.Stats: cmd/diag -replay prints
// it per serving entry and the golden-gated check value folds every field.
//
// Every field is a uint64 counter that Fold mixes into the check value;
// TestBreakdownFoldCoversAllFields fails if a counter falls out of it.
type Breakdown struct {
	// Requests is the number of completed requests.
	Requests uint64 `json:"requests"`
	// Transitions counts one-way enclave transitions (EENTER or EEXIT);
	// zero outside enclaves.
	Transitions uint64 `json:"transitions"`
	// TransitionCycles is the cycles those transitions cost.
	TransitionCycles uint64 `json:"transition_cycles"`
	// QueueWaitCycles is the time requests sat in the dispatch queue
	// between being enqueued and being handed to a worker.
	QueueWaitCycles uint64 `json:"queue_wait_cycles"`
	// LockCycles is the full dispatch-lock path cost (sleep latency,
	// critical sections, contended hold extensions) over all pushes and
	// pops.
	LockCycles uint64 `json:"lock_cycles"`
	// CommitWaitCycles is the time workers waited on the enclave-global
	// EDMM page-commit serialization before their own commits started.
	CommitWaitCycles uint64 `json:"commit_wait_cycles"`
	// CommitCycles is the page-commit work itself (EDMM protocol inside
	// enclaves, minor faults outside).
	CommitCycles uint64 `json:"commit_cycles"`
	// PagesCommitted is the number of 4 KiB pages committed at run time.
	PagesCommitted uint64 `json:"pages_committed"`
	// ServiceCycles is the query-execution work actually performed by
	// workers, including work on attempts the client had already
	// abandoned (the server is deadline-unaware) and the partial work
	// of transiently aborted attempts. Work lost to enclave crashes
	// vanishes with the enclave and is not counted.
	ServiceCycles uint64 `json:"service_cycles"`
	// Timeouts counts attempts abandoned by their client's deadline.
	Timeouts uint64 `json:"timeouts"`
	// Retries counts re-issued attempts (after a shed, timeout, abort
	// or crash-lost attempt), i.e. attempts beyond each logical
	// request's first.
	Retries uint64 `json:"retries"`
	// Shed counts submissions rejected by queue-depth admission
	// control.
	Shed uint64 `json:"shed"`
	// Crashes counts enclave crashes across the worker pool.
	Crashes uint64 `json:"crashes"`
	// RebuildCycles is the total wall time workers were out of service
	// across crashes: teardown, waiting on the serialized kernel
	// enclave-management lock, and the ECREATE/EADD/EINIT-scale
	// rebuild itself.
	RebuildCycles uint64 `json:"rebuild_cycles"`
	// AEXEvents counts asynchronous enclave exits injected by storm
	// windows; AEXCycles is the wall time they cost.
	AEXEvents uint64 `json:"aex_events"`
	AEXCycles uint64 `json:"aex_cycles"`
}

// Fold mixes every Breakdown counter into h, in field order. It walks
// the struct reflectively so a newly added counter is folded into the
// golden check value by construction (TestBreakdownFoldCoversAllFields
// pins the sensitivity); fillBreakdown's kind check keeps the fields
// uint64-only.
func (b Breakdown) Fold(h uint64) uint64 {
	v := reflect.ValueOf(b)
	for i := 0; i < v.NumField(); i++ {
		h = agg.Mix(h, v.Field(i).Uint())
	}
	return h
}
