package cache

import (
	"reflect"
	"testing"

	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// TestResetIsNew drives a randomized trace of loads, stores, stream
// fills and dirty marks into every cache and TLB level of the scaled
// platforms the repository runs (plus an L3 shared by two threads),
// resets it, and requires the result to be deeply equal to a new model of
// the same geometry. The same holds for a model that went through the
// pool: Put and Get must hand back New's state, whether or not the pool
// kept the model.
func TestResetIsNew(t *testing.T) {
	for _, f := range []int64{1, 32, 128, 256, 512} {
		p := platform.XeonGold6326().Scaled(f)
		l3Share := p.L3
		l3Share.SizeBytes = max(l3Share.SizeBytes/2, int64(l3Share.Ways)*l3Share.LineBytes)
		r := rng.NewXorShift(uint64(f))
		for _, g := range []platform.CacheGeom{p.L1D, p.L2, p.L3, l3Share} {
			span := uint64(4 * g.SizeBytes / g.LineBytes)
			drive := func(c *Cache) {
				for i := 0; i < 20000; i++ {
					line := r.Uint64n(span)
					switch i % 3 {
					case 0:
						c.AccessOrFill(line, r.Uint64n(2) == 0)
						c.DirtyMRU(line)
					case 1:
						c.AccessOrFill(line, false)
					default:
						c.AccessOrFillStream(line, i%4 == 0)
					}
				}
			}
			c := New(g)
			drive(c)
			c.Reset()
			if !reflect.DeepEqual(c, New(g)) {
				t.Errorf("scale %d, cache %+v: Reset differs from New", f, g)
			}
			drive(c)
			Put(c)
			if got := Get(g); !reflect.DeepEqual(got, New(g)) {
				t.Errorf("scale %d, cache %+v: Get after Put differs from New", f, g)
			}
		}
		for _, g := range []platform.TLBGeom{p.DTLB, p.STLB} {
			span := uint64(4 * g.Entries)
			drive := func(tlb *TLB) {
				for i := 0; i < 20000; i++ {
					tlb.Access(r.Uint64n(span))
				}
			}
			tlb := NewTLB(g)
			drive(tlb)
			tlb.Reset()
			if !reflect.DeepEqual(tlb, NewTLB(g)) {
				t.Errorf("scale %d, TLB %+v: Reset differs from NewTLB", f, g)
			}
			drive(tlb)
			PutTLB(tlb)
			if got := GetTLB(g); !reflect.DeepEqual(got, NewTLB(g)) {
				t.Errorf("scale %d, TLB %+v: GetTLB after PutTLB differs from NewTLB", f, g)
			}
		}
	}
}
