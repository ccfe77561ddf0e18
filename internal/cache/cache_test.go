package cache

import (
	"slices"
	"testing"

	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// oneSet is a single-set, 4-way cache geometry: every line maps to set 0,
// which makes eviction order directly observable.
var oneSet = platform.CacheGeom{SizeBytes: 4 * 64, Ways: 4, LineBytes: 64}

// lines that all map to set 0 of a single-set cache are just consecutive
// integers; for multi-set geometries use line*sets to stay in one set.

// probe is one access with fill-on-miss, the operation both tests below
// drive: the packed cache's fused AccessOrFill, and the reference cache's
// Access followed, on a miss, by Fill.
type probe func(line uint64, write bool) (hit bool, evicted uint64, evictedDirty, evictedOK bool)

func probes(g platform.CacheGeom) map[string]probe {
	ref := NewRef(g)
	return map[string]probe{
		"fast": New(g).AccessOrFill,
		"ref": func(line uint64, write bool) (bool, uint64, bool, bool) {
			if ref.Access(line, write) {
				return true, 0, false, false
			}
			ev, dirty, ok := ref.Fill(line, write)
			return false, ev, dirty, ok
		},
	}
}

// TestLRUEvictionOrder fills a set past capacity and checks that the
// least recently used line is evicted, for both implementations.
func TestLRUEvictionOrder(t *testing.T) {
	for name, access := range probes(oneSet) {
		// Fill ways with lines 1..4. No evictions while invalid ways last.
		for l := uint64(1); l <= 4; l++ {
			if hit, _, _, ok := access(l, false); hit || ok {
				t.Fatalf("%s: cold access to line %d: hit=%v evicted=%v", name, l, hit, ok)
			}
		}
		// Touch line 1: it becomes MRU; LRU is now line 2.
		if hit, _, _, _ := access(1, false); !hit {
			t.Fatalf("%s: line 1 should be resident", name)
		}
		// Insert line 5: must evict line 2 (true LRU); then line 6 evicts 3.
		for l, want := uint64(5), uint64(2); l <= 6; l, want = l+1, want+1 {
			if hit, ev, _, ok := access(l, false); hit || !ok || ev != want {
				t.Errorf("%s: line %d: want miss evicting line %d, got hit=%v ok=%v line=%d", name, l, want, hit, ok, ev)
			}
		}
		// 1, 4, 5, 6 resident; 2, 3 gone.
		for _, want := range []uint64{1, 4, 5, 6} {
			if hit, _, _, _ := access(want, false); !hit {
				t.Errorf("%s: line %d should be resident", name, want)
			}
		}
		if hit, ev, _, _ := access(2, false); hit || ev != 1 {
			t.Errorf("%s: line 2 should be gone and evict line 1, got hit=%v line=%d", name, hit, ev)
		}
	}
}

// TestDirtyWriteback checks that dirty lines report their state when
// evicted and clean lines do not, for both implementations.
func TestDirtyWriteback(t *testing.T) {
	for name, access := range probes(oneSet) {
		access(1, true)  // written on fill
		access(2, false) // clean
		access(3, false)
		access(3, true) // dirtied by a write hit
		access(4, false)
		for _, want := range []struct {
			line  uint64
			dirty bool
		}{{1, true}, {2, false}, {3, true}} {
			_, ev, dirty, ok := access(want.line+4, false)
			if !ok || ev != want.line || dirty != want.dirty {
				t.Errorf("%s: want eviction of line %d dirty=%v, got line=%d dirty=%v ok=%v",
					name, want.line, want.dirty, ev, dirty, ok)
			}
		}
	}
}

// refTLB is a TLB's probe on the reference representation: Access, then
// Fill on a miss.
func refTLB(g platform.TLBGeom) func(page uint64) bool {
	ref := NewRef(g.Cache())
	return func(page uint64) bool {
		if ref.Access(page, false) {
			return true
		}
		ref.Fill(page, false)
		return false
	}
}

// TestTLBSetIndexing checks set selection and that an empty way is always
// preferred over evicting a valid entry, for both representations built
// from a TLB geometry.
func TestTLBSetIndexing(t *testing.T) {
	geom := platform.TLBGeom{Entries: 8, Ways: 4} // 2 sets x 4 ways
	for _, impl := range []string{"fast", "ref"} {
		access := NewTLB(geom).Access
		if impl == "ref" {
			access = refTLB(geom)
		}
		// Pages 0,2,4,6 map to set 0; pages 1,3,5 to set 1.
		for _, p := range []uint64{0, 2, 4, 6} {
			if access(p) {
				t.Fatalf("%s: cold access to page %d hit", impl, p)
			}
		}
		// Set 1 is untouched: installing there must not disturb set 0.
		access(1)
		for _, p := range []uint64{0, 2, 4, 6} {
			if !access(p) {
				t.Errorf("%s: page %d evicted by an install in another set", impl, p)
			}
		}
		// Set 0 is full and the re-touches went 0, 2, 4, 6, so its LRU is
		// page 0: page 8 evicts it.
		access(8)
		if access(0) {
			t.Errorf("%s: page 0 (LRU) should have been evicted", impl)
		}
		// That miss re-installed page 0, evicting the then-LRU page 2.
		if !access(8) || !access(6) || !access(4) {
			t.Errorf("%s: recently used pages evicted", impl)
		}
	}
}

// TestCacheFusedEquivalence is the packed-vs-RefCache differential: every
// probe the packed cache offers — AccessOrFill, AccessOrFillStream, the
// in-place DirtyMRU — runs against a RefCache using separate
// Access+Fill on the same randomized trace of mixed reads and writes,
// over two small geometries (so sets overflow constantly), and every
// hit and every eviction decision must agree.
func TestCacheFusedEquivalence(t *testing.T) {
	for _, g := range []struct {
		name        string
		sets, ways  int64
		lines, seed uint64
	}{
		{"8x4", 8, 4, 128, 7}, // 16 lines per set: constant overflow
		{"4x8", 4, 8, 96, 11},
	} {
		geom := platform.CacheGeom{SizeBytes: g.sets * g.ways * 64, Ways: int(g.ways), LineBytes: 64}
		fast := New(geom)
		ref := NewRef(geom)
		r := rng.NewXorShift(g.seed)
		for i := 0; i < 200000; i++ {
			// One line in four is shifted by 128 tags, so it shares its filter
			// counter with a line that may be resident and the set scan also
			// runs for lines that turn out to be absent.
			line := r.Next() % g.lines
			if r.Next()%4 == 0 {
				line += uint64(g.sets) * (filtMask + 1)
			}
			if addr := line<<6 | 63; fast.LineOf(addr) != line || ref.LineOf(addr) != line {
				t.Fatalf("%s op %d: LineOf(%#x) fast=%d ref=%d, want %d", g.name, i, addr, fast.LineOf(addr), ref.LineOf(addr), line)
			}
			write := r.Next()%3 == 0
			op := r.Next() % 4096
			if op == 0 { // a cold restart: both sides start over empty
				fast, ref = New(geom), NewRef(geom)
			}
			probe := fast.AccessOrFill
			if op&1 != 0 {
				probe = fast.AccessOrFillStream
			}
			fh, fe, fd, fok := probe(line, write)
			rh := ref.Access(line, write)
			if fh != rh {
				t.Fatalf("%s op %d: line %d fast hit=%v ref hit=%v", g.name, i, line, fh, rh)
			}
			if !rh {
				re, rd, rok := ref.Fill(line, write)
				if fok != rok || (fok && (fe != re || fd != rd)) {
					t.Fatalf("%s op %d: line %d eviction fast=(%d,%v,%v) ref=(%d,%v,%v)", g.name, i, line, fe, fd, fok, re, rd, rok)
				}
			}
			// The line is now its set's MRU way, which is all DirtyMRU asks
			// for: after a read it must act as the reference's write hit (a
			// later eviction of the line reports the dirty bit).
			if !write && op&6 == 0 {
				fast.DirtyMRU(line)
				if !ref.Access(line, true) {
					t.Fatalf("%s op %d: line %d not resident in ref after its own access", g.name, i, line)
				}
			}
		}
	}
}

// TestWidestSetOneFilterKey is the packed-vs-reference differential at
// the widest associativity platform.Validate admits, with every line of
// the single set on filter key 0: the key's one-byte counter climbs to
// its maximum of 255 and must still never prove a resident line absent.
// The trace fills the set, re-touches every way, then churns over more
// lines than fit.
func TestWidestSetOneFilterKey(t *testing.T) {
	const ways = 255
	geom := platform.CacheGeom{SizeBytes: ways * 64, Ways: ways, LineBytes: 64}
	tgeom := platform.TLBGeom{Entries: ways, Ways: ways}
	fast, ref := New(geom), NewRef(geom)
	tlb, tlbRef := NewTLB(tgeom), refTLB(tgeom)
	r := rng.NewXorShift(3)
	for i := 0; i < 20000; i++ {
		n := uint64(i % ways)
		if i >= 2*ways {
			n = r.Next() % (ways + 64)
		}
		line := n * (filtMask + 1)
		write := r.Next()%3 == 0
		probe := fast.AccessOrFill
		if i&1 != 0 {
			probe = fast.AccessOrFillStream
		}
		fh, fe, fd, fok := probe(line, write)
		if rh := ref.Access(line, write); fh != rh {
			t.Fatalf("op %d: line %d fast hit=%v ref hit=%v", i, line, fh, rh)
		}
		if !fh {
			if re, rd, rok := ref.Fill(line, write); fok != rok || (fok && (fe != re || fd != rd)) {
				t.Fatalf("op %d: line %d eviction fast=(%d,%v,%v) ref=(%d,%v,%v)", i, line, fe, fd, fok, re, rd, rok)
			}
		}
		if fh, rh := tlb.Access(line), tlbRef(line); fh != rh {
			t.Fatalf("op %d: TLB page %d fast hit=%v ref hit=%v", i, line, fh, rh)
		}
	}
}

// TestTLBImplEquivalence drives both representations, built from a TLB
// geometry, with the same randomized page trace, interrupted by the
// occasional cold restart.
func TestTLBImplEquivalence(t *testing.T) {
	geom := platform.TLBGeom{Entries: 16, Ways: 4} // 4 sets x 4 ways
	fast, ref := NewTLB(geom), refTLB(geom)
	r := rng.NewXorShift(13)
	for i := 0; i < 200000; i++ {
		page := r.Next() % 64
		if r.Next()%4096 == 0 {
			fast, ref = NewTLB(geom), refTLB(geom)
		}
		fh := fast.Access(page)
		rh := ref(page)
		if fh != rh {
			t.Fatalf("op %d: access(page %d) fast=%v ref=%v", i, page, fh, rh)
		}
		// After any probe (hit or miss-install) the page is its set's MRU:
		// a re-probe hits and changes nothing.
		data, head := slices.Clone(fast.data), slices.Clone(fast.head)
		if !fast.Access(page) || !slices.Equal(fast.data, data) || !slices.Equal(fast.head, head) {
			t.Fatalf("op %d: re-probe of page %d missed or changed the TLB", i, page)
		}
	}
}
