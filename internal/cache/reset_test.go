package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// TestResetIsNew drives a randomized trace of loads, stores, stream
// fills, dirty marks and TLB probes into every cache and TLB level of the
// scaled platforms the repository runs (plus an L3 shared by two threads),
// resets it, and requires the result to be deeply equal to a new model of
// the same geometry. The same holds for a model that went through the
// pool: Put and Get must hand back New's state, whether or not the pool
// kept the model.
func TestResetIsNew(t *testing.T) {
	for _, f := range []int64{1, 32, 128, 256, 512} {
		p := platform.XeonGold6326().Scaled(f)
		r := rng.NewXorShift(uint64(f))
		for _, g := range []platform.CacheGeom{p.L1D, p.L2, p.L3, p.L3.Share(2), p.DTLB.Cache(), p.STLB.Cache()} {
			span := uint64(4 * g.SizeBytes / g.LineBytes)
			drive := func(c *Cache) {
				for i := 0; i < 20000; i++ {
					line := r.Uint64n(span)
					switch i % 4 {
					case 0:
						c.AccessOrFill(line, r.Uint64n(2) == 0)
						c.DirtyMRU(line)
					case 1:
						c.AccessOrFill(line, false)
					case 2:
						c.AccessOrFillStream(line, i%8 == 2)
					default:
						c.Access(line) // a TLB's probe
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
	}
}

// TestNominalIsSimulated: for every scale from 1 to 2^16, each level of
// the platform, and the L3 share of each of 1 to 16 threads, builds caches
// of exactly the sets its geometry states, so the capacity a platform
// reports is the capacity both representations simulate.
func TestNominalIsSimulated(t *testing.T) {
	for f := int64(1); f <= 1<<16; f *= 2 {
		p := platform.XeonGold6326().Scaled(f)
		names := []string{"L1D", "L2", "DTLB", "STLB"}
		levels := []platform.CacheGeom{p.L1D, p.L2, p.DTLB.Cache(), p.STLB.Cache()}
		for k := 1; k <= 16; k++ {
			names, levels = append(names, fmt.Sprintf("L3/%d", k)), append(levels, p.L3.Share(k))
		}
		for i, g := range levels {
			if fast, ref := New(g).mask+1, NewRef(g).sets; fast != uint64(g.Sets()) || ref != uint64(g.Sets()) {
				t.Errorf("Scaled(%d) %s: %d sets stated, Cache simulates %d, RefCache %d", f, names[i], g.Sets(), fast, ref)
			}
		}
	}
}

// TestNewRejectsInexactGeometry: a geometry whose set count is not a power
// of two used to be rounded up to one; both representations now refuse
// it with platform.CacheGeom.Check's error.
func TestNewRejectsInexactGeometry(t *testing.T) {
	for _, g := range []platform.CacheGeom{
		{SizeBytes: 3 * 4 * 64, Ways: 4, LineBytes: 64},      // 3 sets
		{SizeBytes: 4*64 + 64, Ways: 4, LineBytes: 64},       // a set and one line
		{SizeBytes: 2 * 64, Ways: 4, LineBytes: 64},          // half a set
		{SizeBytes: 64 * 256 * 64, Ways: 256, LineBytes: 64}, // too wide
	} {
		for name, build := range map[string]func(){"New": func() { New(g) }, "NewRef": func() { NewRef(g) }} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "cache: ") || !strings.Contains(msg, g.Check().Error()) {
						t.Errorf("%s(%+v) panicked with %q, want Check's error", name, g, msg)
					}
				}()
				build()
			}()
		}
	}
}
