package engine_test

import (
	"reflect"
	"testing"

	"sgxbench/internal/engine"
)

// fillStats assigns base*k to the k-th numeric leaf of s (array elements
// count as separate leaves), failing the test on any field kind it does
// not know how to fill — which forces this test to be extended alongside
// the Stats struct.
func fillStats(t *testing.T, s *engine.Stats, base uint64) {
	t.Helper()
	idx := uint64(1)
	var walk func(f reflect.Value)
	walk = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(base * idx)
			idx++
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				walk(f.Index(i))
			}
		default:
			t.Fatalf("Stats has a field of unsupported kind %v: teach fillStats (and Stats.Sub) about it", f.Kind())
		}
	}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		walk(v.Field(i))
	}
}

// TestStatsSubCoversAllFields fails when a newly added Stats field is
// omitted from Sub: every leaf of a - b must equal the leaf-wise
// difference, which an omitted field (left at a's or the zero value)
// cannot satisfy.
func TestStatsSubCoversAllFields(t *testing.T) {
	var a, b, want engine.Stats
	fillStats(t, &a, 5)
	fillStats(t, &b, 2)
	fillStats(t, &want, 3)
	if got := a.Sub(b); got != want {
		t.Errorf("Stats.Sub misses a field:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestStatsPagingCounters pins the demand-paging counters by name: the
// oversubscription layers (exec wall accounting, the spill operators'
// golden gates, cmd/diag -replay) all read these fields directly, so a
// rename or removal must be a deliberate cross-layer change.
func TestStatsPagingCounters(t *testing.T) {
	v := reflect.ValueOf(engine.Stats{})
	for _, name := range []string{"EPCFaults", "EPCEvictions", "EPCPagingCycles"} {
		f := v.FieldByName(name)
		if !f.IsValid() || f.Kind() != reflect.Uint64 {
			t.Errorf("engine.Stats lacks uint64 paging counter %s", name)
		}
	}
}

// TestStatsAddSubRoundTrip pins the snapshot-delta semantics exec relies
// on: (a.Sub(b)) restores b's counters when the phase aggregate is summed
// back — i.e. Sub is the exact inverse of field-wise accumulation.
func TestStatsAddSubRoundTrip(t *testing.T) {
	var a, b engine.Stats
	fillStats(t, &a, 9)
	fillStats(t, &b, 4)
	d := a.Sub(b)
	// Field-wise: b + d == a for every leaf (Add maxes Cycles, so compare
	// through Sub instead: a.Sub(d) must equal b).
	if got := a.Sub(d); got != b {
		t.Errorf("a.Sub(a.Sub(b)) != b:\ngot:  %+v\nwant: %+v", got, b)
	}
}
