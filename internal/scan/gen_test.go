package scan

import (
	"hash/fnv"
	"testing"

	"sgxbench/internal/mem"
)

// TestGenColumnPinned pins GenColumn's bytes at lengths around the
// 8-byte word boundary (empty, tail only, one word, word plus tail) and
// at a multi-page odd length, so a faster store loop cannot move a
// generated bit.
func TestGenColumnPinned(t *testing.T) {
	space := mem.NewSpace(1)
	for _, c := range []struct {
		n    int
		want uint64
	}{
		{0, 0xcbf29ce484222325}, // the FNV-1a offset basis: no bytes
		{1, 0xaf641f4c86025e65},
		{7, 0xa691b1df86124a04},
		{8, 0x2d0179ac93e169ec},
		{9, 0x5aebaf3f4807011d},
		{65539, 0xa1a03fdfdaf01bfe},
	} {
		col := space.AllocU8("col", c.n, mem.Region{})
		GenColumn(col, 42)
		h := fnv.New64a()
		h.Write(col.D)
		if got := h.Sum64(); got != c.want {
			t.Errorf("len %d: FNV-64 %#x, want %#x", c.n, got, c.want)
		}
	}
}
