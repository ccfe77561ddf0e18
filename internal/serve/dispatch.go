package serve

import (
	"fmt"
	"reflect"

	"sgxbench/internal/agg"
)

// DispatchKind selects how submitted attempts reach workers.
type DispatchKind int

const (
	// DispatchGlobal is the original single shared queue: every push and
	// pop serializes on one dispatch lock.
	DispatchGlobal DispatchKind = iota
	// DispatchSharded gives every worker its own queue (same sync model
	// per shard). Clients spread submissions round-robin; a worker that
	// drains its own shard steals the oldest half of a seeded-order
	// victim's queue, so the pool stays work-conserving without a
	// global lock.
	DispatchSharded
)

func (d DispatchKind) String() string {
	switch d {
	case DispatchGlobal:
		return "global"
	case DispatchSharded:
		return "shard"
	}
	return fmt.Sprintf("dispatch(%d)", int(d))
}

// DispatchStats counts the work of batched and sharded dispatch. The
// check value folds it after Breakdown, which is why it is a record of
// its own: moving its counters into Breakdown would reorder the fold and
// move every check value. Like Breakdown, every field is a uint64
// counter that Fold covers (pinned by TestDispatchStatsCoverAllFields).
type DispatchStats struct {
	// Batches counts worker enclave entries through the batched path;
	// BatchedAttempts the attempts they carried (mean batch size =
	// BatchedAttempts / Batches).
	Batches         uint64 `json:"batches"`
	BatchedAttempts uint64 `json:"batched_attempts"`
	// Steals counts successful steal operations; StolenAttempts the
	// attempts migrated (steal-half: ceil(victim depth / 2) each).
	Steals         uint64 `json:"steals"`
	StolenAttempts uint64 `json:"stolen_attempts"`
}

// Fold mixes every counter into h, in field order (reflective, so a new
// counter is folded by construction).
func (d DispatchStats) Fold(h uint64) uint64 {
	v := reflect.ValueOf(d)
	for i := 0; i < v.NumField(); i++ {
		h = agg.Mix(h, v.Field(i).Uint())
	}
	return h
}
