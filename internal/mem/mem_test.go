package mem

import (
	"math"
	"strings"
	"testing"
)

// mustPanic runs f and returns its panic message, failing if f returns.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
			return
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// TestAllocAlignment: every allocation starts on a 4 KiB page, takes its
// size rounded up to whole pages (one page when empty), and keeps the
// requested size in the handle.
func TestAllocAlignment(t *testing.T) {
	s := NewSpace(1)
	r := Region{Node: 0, Kind: EPC}
	var used int64
	next := s.Alloc("first", 1, r).Base + 4096
	for _, c := range []struct {
		n     int64
		pages int64
	}{{0, 1}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {3 * 4096, 3}, {3*4096 + 1, 4}} {
		used = s.Used(r)
		b := s.Alloc("x", c.n, r)
		if b.Base%4096 != 0 {
			t.Errorf("n=%d: base %#x not page-aligned", c.n, b.Base)
		}
		if b.Base != next {
			t.Errorf("n=%d: base %#x, want %#x right after the previous allocation", c.n, b.Base, next)
		}
		if b.Size != c.n || b.Reg != r || b.Name != "x" {
			t.Errorf("n=%d: handle %+v", c.n, b)
		}
		if got := s.Used(r) - used; got != c.pages*4096 {
			t.Errorf("n=%d: Used grew by %d, want %d", c.n, got, c.pages*4096)
		}
		next = b.Base + uint64(c.pages*4096)
	}
}

// TestRegionsDisjoint: each (node, kind) region bump-allocates in its own
// 2^44-byte window and keeps its own Used count.
func TestRegionsDisjoint(t *testing.T) {
	s := NewSpace(2)
	regions := []Region{{0, Untrusted}, {0, EPC}, {1, Untrusted}, {1, EPC}}
	for i, r := range regions {
		for j := 0; j <= i; j++ {
			s.Alloc(r.Kind.String(), 4096*int64(i+1), r)
		}
	}
	seen := map[uint64]Region{}
	for i, r := range regions {
		if got, want := s.Used(r), int64(4096*(i+1)*(i+1)); got != want {
			t.Errorf("%+v: Used %d, want %d", r, got, want)
		}
		b := s.Alloc("probe", 1, r)
		win := b.Base / regionWindow
		if b.Base%regionWindow != uint64(4096*(i+1)*(i+1)) {
			t.Errorf("%+v: offset %#x in its window", r, b.Base%regionWindow)
		}
		if prev, ok := seen[win]; ok {
			t.Errorf("%+v shares window %d with %+v", r, win, prev)
		}
		seen[win] = r
	}
	if s.Used(Region{Node: 5, Kind: EPC}) != 0 {
		t.Error("a region never allocated in reports usage")
	}
}

// TestAllocPanicLeavesSpaceUnchanged: a recovered exhaustion or oversize
// panic reserves nothing, so Used and the next address stay as they were.
func TestAllocPanicLeavesSpaceUnchanged(t *testing.T) {
	for _, c := range []struct {
		name  string
		fill  int64 // bytes allocated before the failing call
		n     int64
		wants string
	}{
		{"exhaustion", regionWindow - 3*4096, 2*4096 + 1, "exhausted"},
		{"exhaustion at empty", 0, regionWindow, "exhausted"},
		{"round-up overflow", 0, math.MaxInt64, "exhausted"},
		{"round-up overflow after fill", 4096, math.MaxInt64 - 4000, "exhausted"},
		{"negative", 4096, -1, "negative"},
	} {
		s := NewSpace(1)
		r := Region{Node: 0, Kind: EPC}
		if c.fill > 0 {
			s.Alloc("fill", c.fill, r)
		}
		used := s.Used(r)
		msg := mustPanic(t, c.name, func() { s.Alloc("bad", c.n, r) })
		if !strings.Contains(msg, c.wants) {
			t.Errorf("%s: panic %q, want it to mention %q", c.name, msg, c.wants)
		}
		if got := s.Used(r); got != used {
			t.Errorf("%s: Used %d after the recovered panic, want %d", c.name, got, used)
			continue
		}
		want := s.base(r) + uint64(used)
		if b := s.Alloc("after", 1, r); b.Base != want {
			t.Errorf("%s: next allocation at %#x, want %#x", c.name, b.Base, want)
		}
	}
}

// TestPanics: out-of-range nodes, empty machines and out-of-bounds slices
// panic instead of aliasing the wrong memory.
func TestPanics(t *testing.T) {
	s := NewSpace(2)
	b := s.Alloc("buf", 100, Region{Node: 1, Kind: Untrusted})
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"zero nodes", func() { NewSpace(0) }},
		{"node -1", func() { s.Alloc("x", 1, Region{Node: -1}) }},
		{"node == nodes", func() { s.Alloc("x", 1, Region{Node: 2}) }},
		{"slice past end", func() { b.Slice(50, 51) }},
		{"slice negative offset", func() { b.Slice(-1, 1) }},
		{"slice negative length", func() { b.Slice(10, -1) }},
		{"view past end", func() { s.AllocU64("w", 4, Region{}).View(5) }},
	} {
		mustPanic(t, c.name, c.f)
	}
}

// TestContainsAndSlice: Contains is exactly the set of ranges Slice
// accepts, and a slice keeps its parent's placement.
func TestContainsAndSlice(t *testing.T) {
	b := NewSpace(1).Alloc("buf", 100, Region{Kind: EPC})
	for _, c := range []struct {
		off, n int64
		want   bool
	}{
		{0, 0, true}, {0, 100, true}, {99, 1, true}, {100, 0, true},
		{100, 1, false}, {0, 101, false}, {-1, 1, false}, {1, -1, false},
	} {
		if got := b.Contains(c.off, c.n); got != c.want {
			t.Errorf("Contains(%d, %d) = %v, want %v", c.off, c.n, got, c.want)
		}
		if !c.want {
			continue
		}
		sl := b.Slice(c.off, c.n)
		if sl.Base != b.Base+uint64(c.off) || sl.Size != c.n || sl.Reg != b.Reg || sl.Name != b.Name {
			t.Errorf("Slice(%d, %d) = %+v of %+v", c.off, c.n, sl, b)
		}
	}
}

// TestTypedBuffers: typed allocations pair a page-rounded simulated range
// with real backing data of the requested length.
func TestTypedBuffers(t *testing.T) {
	s := NewSpace(1)
	r := Region{Kind: EPC}
	u64 := s.AllocU64("u64", 10, r)
	u32 := s.AllocU32("u32", 10, r)
	u8 := s.AllocU8("u8", 10, r)
	raw := s.Raw("raw", 1<<40, r)
	if u64.Len() != 10 || u64.Size != 80 || u64.Off(3) != 24 {
		t.Errorf("U64Buf: len %d size %d off(3) %d", u64.Len(), u64.Size, u64.Off(3))
	}
	if u32.Len() != 10 || u32.Size != 40 || u32.Off(3) != 12 {
		t.Errorf("U32Buf: len %d size %d off(3) %d", u32.Len(), u32.Size, u32.Off(3))
	}
	if u8.Len() != 10 || u8.Size != 10 {
		t.Errorf("U8Buf: len %d size %d", u8.Len(), u8.Size)
	}
	if raw.Size != 1<<40 || s.Used(r) != 3*4096+1<<40 {
		t.Errorf("Raw: size %d, Used %d", raw.Size, s.Used(r))
	}
	u64.D[2] = 7
	v := u64.View(3)
	if v.Base != u64.Base || v.Len() != 3 || v.Size != 24 || v.D[2] != 7 {
		t.Errorf("View(3) = %+v, want an alias of the first 3 words", v)
	}
	v.D[0] = 9
	if u64.D[0] != 9 {
		t.Error("View does not share backing data")
	}
}

// TestTuple: the 8-byte row format round-trips any key and payload.
func TestTuple(t *testing.T) {
	for _, c := range [][2]uint32{{0, 0}, {1, 2}, {math.MaxUint32, 0}, {0, math.MaxUint32}, {0xdeadbeef, 0x01234567}} {
		tup := MakeTuple(c[0], c[1])
		if TupleKey(tup) != c[0] || TuplePayload(tup) != c[1] {
			t.Errorf("MakeTuple(%#x, %#x) = %#x unpacks to (%#x, %#x)", c[0], c[1], tup, TupleKey(tup), TuplePayload(tup))
		}
	}
	if EPC.String() != "EPC" || Untrusted.String() != "untrusted" {
		t.Errorf("Kind names: %q, %q", EPC, Untrusted)
	}
}

// TestReuse checks both ways Reuse can go: a slice whose capacity holds
// n elements comes back resliced over the same backing array with its
// old contents, and a shorter one is replaced by n zeroed elements.
func TestReuse(t *testing.T) {
	s := []uint64{7, 8, 9, 10}
	if got := Reuse(s[:1], 3); len(got) != 3 || &got[0] != &s[0] || got[2] != 9 {
		t.Errorf("Reuse within capacity: %v (shares backing: %v), want [7 8 9] over the same array", got, &got[0] == &s[0])
	}
	if got := Reuse(s, 5); len(got) != 5 || &got[0] == &s[0] || got[0] != 0 {
		t.Errorf("Reuse beyond capacity: %v, want five new zeroed elements", got)
	}
	if got := Reuse([]bool(nil), 2); len(got) != 2 || got[0] || got[1] {
		t.Errorf("Reuse of nil: %v, want [false false]", got)
	}
}
