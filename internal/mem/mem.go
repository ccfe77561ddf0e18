// Package mem provides the simulated physical address space used by the
// timing engine.
//
// Allocations are tagged with a NUMA node and with whether they live in
// the Enclave Page Cache (EPC, the protected memory region of SGX) or in
// untrusted memory. The engine uses these tags to charge memory-encryption
// and EPCM-check costs. Typed buffers pair a simulated address range with
// a real Go slice so that algorithms compute correct results while the
// engine accounts time: the timing layer never influences the values.
package mem

import (
	"fmt"
)

// Kind distinguishes protected (EPC) from untrusted memory.
type Kind int

const (
	// Untrusted is ordinary host memory outside the PRM.
	Untrusted Kind = iota
	// EPC is protected enclave memory inside the Processor Reserved Memory.
	EPC
)

func (k Kind) String() string {
	if k == EPC {
		return "EPC"
	}
	return "untrusted"
}

// Region describes where an allocation lives.
type Region struct {
	Node int  // NUMA node (socket)
	Kind Kind // EPC or untrusted
}

// Buffer is a simulated allocation: a contiguous simulated address range
// plus its placement. Buffers are handed to engine access methods; typed
// wrappers below add real backing data.
type Buffer struct {
	Base uint64
	Size int64
	Reg  Region
	Name string
}

// Contains reports whether the buffer covers [off, off+n).
func (b *Buffer) Contains(off, n int64) bool {
	return off >= 0 && n >= 0 && off+n <= b.Size
}

// Slice returns a Buffer aliasing the byte range [off, off+n) of b.
// The returned buffer shares b's placement; it is used to hand a worker
// thread its chunk of a larger allocation.
func (b *Buffer) Slice(off, n int64) Buffer {
	if !b.Contains(off, n) {
		panic(fmt.Sprintf("mem: slice [%d,%d) out of buffer %q of size %d", off, off+n, b.Name, b.Size))
	}
	return Buffer{Base: b.Base + uint64(off), Size: n, Reg: b.Reg, Name: b.Name}
}

// Space is a simulated physical address space with a bump allocator per
// (node, kind) region. Each region occupies a disjoint 2^44-byte address
// window so that placement can be recovered from an address if needed.
// A Space belongs to one goroutine: the phases that allocate from it run
// their threads in order on their caller's.
type Space struct {
	next  map[Region]uint64
	used  map[Region]int64
	nodes int
}

// NewSpace returns an empty address space for a machine with the given
// number of NUMA nodes.
func NewSpace(nodes int) *Space {
	if nodes < 1 {
		panic("mem: need at least one node")
	}
	return &Space{
		next:  make(map[Region]uint64),
		used:  make(map[Region]int64),
		nodes: nodes,
	}
}

const regionWindow = 1 << 44

func (s *Space) base(r Region) uint64 {
	idx := uint64(r.Node)*2 + uint64(r.Kind)
	return (idx + 1) * regionWindow
}

// Alloc reserves n bytes in region r, aligned to 4 KiB pages, and returns
// the buffer handle. The name is used in diagnostics only. A panicking
// Alloc reserves nothing: Used is unchanged after it is recovered.
func (s *Space) Alloc(name string, n int64, r Region) Buffer {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative allocation %d for %q", n, name))
	}
	if r.Node < 0 || r.Node >= s.nodes {
		panic(fmt.Sprintf("mem: node %d out of range for %q", r.Node, name))
	}
	// No region fits a window's worth, and rejecting it first keeps the
	// page round-up below from overflowing.
	if n >= regionWindow {
		panic(fmt.Sprintf("mem: region %+v exhausted allocating %d bytes for %q", r, n, name))
	}
	const align = 4096
	sz := (n + align - 1) &^ (align - 1)
	if sz == 0 {
		sz = align
	}
	off := s.next[r]
	if off+uint64(sz) >= regionWindow {
		panic(fmt.Sprintf("mem: region %+v exhausted allocating %d bytes for %q", r, n, name))
	}
	s.next[r] = off + uint64(sz)
	s.used[r] += sz
	return Buffer{Base: s.base(r) + off, Size: n, Reg: r, Name: name}
}

// Used reports the bytes allocated in region r (page-rounded).
func (s *Space) Used(r Region) int64 {
	return s.used[r]
}

// U64Buf is a buffer of 64-bit words with real backing data. Join tuples
// are stored as one word each: key in the low 32 bits, payload in the high
// 32 bits, matching the paper's 8-byte <key, value> rows.
type U64Buf struct {
	Buffer
	D []uint64
}

// AllocU64 allocates an n-word typed buffer.
func (s *Space) AllocU64(name string, n int, r Region) *U64Buf {
	return &U64Buf{Buffer: s.Alloc(name, int64(n)*8, r), D: make([]uint64, n)}
}

// Off returns the byte offset of word i.
func (b *U64Buf) Off(i int) int64 { return int64(i) * 8 }

// Len returns the number of words.
func (b *U64Buf) Len() int { return len(b.D) }

// View returns a typed buffer aliasing the first n words of b: same
// simulated addresses, same backing data. Pipelines use it to hand a
// downstream operator the filled prefix of a pre-allocated intermediate.
func (b *U64Buf) View(n int) *U64Buf {
	return &U64Buf{Buffer: b.Buffer.Slice(0, int64(n)*8), D: b.D[:n]}
}

// U32Buf is a buffer of 32-bit words with real backing data.
type U32Buf struct {
	Buffer
	D []uint32
}

// AllocU32 allocates an n-word typed buffer.
func (s *Space) AllocU32(name string, n int, r Region) *U32Buf {
	return &U32Buf{Buffer: s.Alloc(name, int64(n)*4, r), D: make([]uint32, n)}
}

// Off returns the byte offset of word i.
func (b *U32Buf) Off(i int) int64 { return int64(i) * 4 }

// Len returns the number of words.
func (b *U32Buf) Len() int { return len(b.D) }

// U8Buf is a byte-column buffer (used by the SIMD scans).
type U8Buf struct {
	Buffer
	D []uint8
}

// AllocU8 allocates an n-byte typed buffer.
func (s *Space) AllocU8(name string, n int, r Region) *U8Buf {
	return &U8Buf{Buffer: s.Alloc(name, int64(n), r), D: make([]uint8, n)}
}

// Len returns the number of bytes.
func (b *U8Buf) Len() int { return len(b.D) }

// Raw allocates an untyped (no backing data) buffer, used by
// micro-benchmarks that only need addresses, not values — e.g. the random
// read/write benchmark over up-to-32 GB arrays (Fig 5), where backing the
// array with real memory would be wasteful.
func (s *Space) Raw(name string, n int64, r Region) Buffer {
	return s.Alloc(name, n, r)
}

// MakeTuple packs a (key, payload) pair into the 8-byte row format.
func MakeTuple(key, payload uint32) uint64 { return uint64(key) | uint64(payload)<<32 }

// TupleKey extracts the 32-bit join key of a packed row.
func TupleKey(t uint64) uint32 { return uint32(t) }

// TuplePayload extracts the 32-bit payload of a packed row.
func TuplePayload(t uint64) uint32 { return uint32(t >> 32) }
