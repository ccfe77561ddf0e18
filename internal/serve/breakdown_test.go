package serve_test

import (
	"reflect"
	"testing"

	"sgxbench/internal/serve"
)

// fillBreakdown assigns base*k to the k-th numeric field, failing on any
// field kind other than the uint64 counters Fold knows how to mix.
func fillBreakdown(t *testing.T, b *serve.Breakdown, base uint64) {
	t.Helper()
	v := reflect.ValueOf(b).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("Breakdown has a field of unsupported kind %v: teach fillBreakdown (and Fold) about it", f.Kind())
		}
		f.SetUint(base * uint64(i+1))
	}
}

// TestBreakdownFoldCoversAllFields pins the golden-check fold's
// sensitivity: flipping any single Breakdown counter must change the
// fold value, so no counter can silently fall out of the scenario
// check.
func TestBreakdownFoldCoversAllFields(t *testing.T) {
	var base serve.Breakdown
	fillBreakdown(t, &base, 7)
	h0 := base.Fold(0xcbf29ce484222325)
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		mutated := base
		mv := reflect.ValueOf(&mutated).Elem().Field(i)
		mv.SetUint(mv.Uint() + 1)
		if mutated.Fold(0xcbf29ce484222325) == h0 {
			t.Errorf("Fold insensitive to field %s", v.Type().Field(i).Name)
		}
	}
}
