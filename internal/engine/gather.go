package engine

import "sgxbench/internal/mem"

// Batched random-access memory APIs. Where the bulk run APIs (LoadRun,
// StoreRun, LoadLines) charge *sequential* access runs, the gather/
// scatter family charges a caller-supplied vector of byte offsets in one
// engine invocation — the data-dependent patterns of row-id scans, radix
// histograms and scatters, and hash-table builds and probes.
//
// Each API is *defined* as the per-element loop written in its body, on
// both engines: a range check per element, then the element's accesses
// through loadAt/storeAt — the same primitive the public Load, Store and
// CAS issue through — in exactly the order its doc comment states in
// terms of those per-op calls. Element i's operations complete before
// element i+1's begin, so simulated statistics and downstream
// cache/TLB/prefetcher state are bit-identical to hand-issuing that
// sequence (TestGatherMatchesPerOp checks all five, on both engines).
// What a call saves is host work only: the buffer placement is resolved
// once per call, and the production loadAt/storeAt's MRU line memo
// collapses the idiomatic same-line sequences (latch CAS + count load,
// histogram load + increment store) into single probes. This file never
// asks which engine it runs on; loadAt/storeAt hand over to the reference
// engine themselves.
//
// deps conventions: a nil token slice means "zero token for every
// element" (statically known addresses / data); a nil toks output slice
// skips recording per-element completion tokens.

// LoadGather charges n := len(offs) independent loads of size bytes at
// the given byte offsets — Load(b, offs[i], size, deps[i]) for each i.
// deps[i] is element i's address dependency — for a row-id gather, the
// token of the loaded row id. It returns the last element's value token.
func (t *Thread) LoadGather(b *mem.Buffer, size int64, offs []int64, deps, toks []Tok) Tok {
	var done Tok
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	for i, off := range offs {
		if off < 0 || off+size > b.Size {
			t.checkRange(b, off, size)
		}
		var d Tok
		if deps != nil {
			d = deps[i]
		}
		done = t.loadAt(b, b.Base+uint64(off), node, epc, remote, d)
		if toks != nil {
			toks[i] = done
		}
	}
	return done
}

// StoreScatter charges n := len(offs) independent stores of size bytes at
// the given byte offsets — Store(b, offs[i], size, addrDeps[i],
// dataDeps[i]) for each i. addrDeps[i] is the token the i-th store address
// was computed from (the SSB-relevant dependency: a partition cursor, a
// hash-derived slot), dataDeps[i] the token of the stored value.
func (t *Thread) StoreScatter(b *mem.Buffer, size int64, offs []int64, addrDeps, dataDeps []Tok) {
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	for i, off := range offs {
		if off < 0 || off+size > b.Size {
			t.checkRange(b, off, size)
		}
		var aDep, dDep Tok
		if addrDeps != nil {
			aDep = addrDeps[i]
		}
		if dataDeps != nil {
			dDep = dataDeps[i]
		}
		t.storeAt(b, b.Base+uint64(off), node, epc, remote, aDep, dDep)
	}
}

// RMWScatter charges n := len(offs) read-modify-write pairs — the
// histogram-increment / cursor-bump idiom: for each element a load at
// offs[i] (address dependency deps[i]) immediately followed by a store to
// the same offset whose data depends on the loaded value (one ALU cycle
// after it): tok := Load(b, offs[i], size, deps[i]) then Store(b, offs[i],
// size, deps[i], After(tok, 1)). The store is a same-line repeat of its
// own load, so the production engine charges the pair with a single probe. toks, when non-nil, receives
// the load tokens (the value-availability tokens callers chain dependent
// stores on, e.g. the tuple store of a partition scatter).
func (t *Thread) RMWScatter(b *mem.Buffer, size int64, offs []int64, deps, toks []Tok) {
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	for i, off := range offs {
		if off < 0 || off+size > b.Size {
			t.checkRange(b, off, size)
		}
		var d Tok
		if deps != nil {
			d = deps[i]
		}
		addr := b.Base + uint64(off)
		tok := t.loadAt(b, addr, node, epc, remote, d)
		t.storeAt(b, addr, node, epc, remote, d, After(tok, 1))
		if toks != nil {
			toks[i] = tok
		}
	}
}

// LoadChain charges n := len(offs0) dependent load pairs — the
// pointer-chase idiom of a hash-bucket header followed by its slot line:
// for each element a load at offs0[i] (address dependency deps[i]) and
// then a load at offs1[i] whose address derives from the first value,
// linkLat cycles of dataflow after it: tok := Load(b, offs0[i], size,
// deps[i]) then Load(b, offs1[i], size, After(tok, linkLat)). toks, when
// non-nil, receives the second loads' tokens; the return value is the
// last one.
func (t *Thread) LoadChain(b *mem.Buffer, size int64, offs0, offs1 []int64, linkLat uint64, deps, toks []Tok) Tok {
	if len(offs0) != len(offs1) {
		panic("engine: LoadChain offset vectors differ in length")
	}
	var done Tok
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	for i, off := range offs0 {
		if off < 0 || off+size > b.Size {
			t.checkRange(b, off, size)
		}
		if o1 := offs1[i]; o1 < 0 || o1+size > b.Size {
			t.checkRange(b, o1, size)
		}
		var d Tok
		if deps != nil {
			d = deps[i]
		}
		tok := t.loadAt(b, b.Base+uint64(off), node, epc, remote, d)
		done = t.loadAt(b, b.Base+uint64(offs1[i]), node, epc, remote, After(tok, linkLat))
		if toks != nil {
			toks[i] = done
		}
	}
	return done
}

// CASLoad charges n := len(offs) latch-acquire pairs — the hash-insert
// idiom of PHT's build: for each element an atomic CAS on the line at
// offs[i] (latch acquire) followed by a load of loadSize bytes at the same
// offset (the bucket count, which shares the latch line): cas := CAS(b,
// offs[i], deps[i]) then Load(b, offs[i], loadSize, cas). All three
// micro-accesses of an element touch one line, so the production engine
// pays one probe per element. casToks receives the CAS
// visibility tokens, loadToks the count-load tokens; either may be nil.
func (t *Thread) CASLoad(b *mem.Buffer, loadSize int64, offs []int64, deps, casToks, loadToks []Tok) {
	node := b.Reg.Node
	remote := node != t.Node
	epc := b.Reg.Kind == mem.EPC
	for i, off := range offs {
		if off < 0 || off+8 > b.Size || off+loadSize > b.Size {
			t.checkRange(b, off, 8)
			t.checkRange(b, off, loadSize)
		}
		var d Tok
		if deps != nil {
			d = deps[i]
		}
		addr := b.Base + uint64(off)
		tok := t.loadAt(b, addr, node, epc, remote, d)
		cas := After(tok, casHold)
		t.storeAt(b, addr, node, epc, remote, d, cas)
		ld := t.loadAt(b, addr, node, epc, remote, cas)
		if casToks != nil {
			casToks[i] = cas
		}
		if loadToks != nil {
			loadToks[i] = ld
		}
	}
}
