package engine

import "sgxbench/internal/mem"

// Typed accessors pair the timing call with the real data access so that
// algorithm code stays readable. Each returns the loaded value together
// with its availability token; stores take the token the *address* was
// derived from, which is what the SSB model keys on.

// LoadU64 loads word i of b.
func LoadU64(t *Thread, b *mem.U64Buf, i int, dep Tok) (uint64, Tok) {
	tok := t.Load(&b.Buffer, b.Off(i), 8, dep)
	return b.D[i], tok
}

// StoreU64 stores v into word i of b.
func StoreU64(t *Thread, b *mem.U64Buf, i int, v uint64, addrDep, dataDep Tok) Tok {
	b.D[i] = v
	return t.Store(&b.Buffer, b.Off(i), 8, addrDep, dataDep)
}

// LoadU32 loads word i of b.
func LoadU32(t *Thread, b *mem.U32Buf, i int, dep Tok) (uint32, Tok) {
	tok := t.Load(&b.Buffer, b.Off(i), 4, dep)
	return b.D[i], tok
}

// StoreU32 stores v into word i of b.
func StoreU32(t *Thread, b *mem.U32Buf, i int, v uint32, addrDep, dataDep Tok) Tok {
	b.D[i] = v
	return t.Store(&b.Buffer, b.Off(i), 4, addrDep, dataDep)
}

// LoadLine charges one full cache-line (vector) load at byte offset off.
// Used by the SIMD scans: one AVX-512 load covers 64 bytes.
func LoadLine(t *Thread, b *mem.Buffer, off int64, dep Tok) Tok {
	n := b.Size - off
	if n > 64 {
		n = 64
	}
	return t.Load(b, off, n, dep)
}

// StoreLine charges one full cache-line (vector) store at byte offset
// off, clamped to the buffer end.
func StoreLine(t *Thread, b *mem.Buffer, off int64, addrDep, dataDep Tok) Tok {
	n := b.Size - off
	if n > 64 {
		n = 64
	}
	return t.Store(b, off, n, addrDep, dataDep)
}
