// Package btree implements the bulk-loaded B+-tree index used by the
// index nested loop join (INL, Section 4). Lookups descend a dependent
// pointer chain — each node address comes from the previous node's
// search — so probes over indexes larger than the LLC serialize on
// memory latency, the access pattern whose enclave overhead Section 4.1
// quantifies.
package btree

import (
	"fmt"
	"sort"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
)

// leafCap is the number of (key, value) pairs per leaf node; innerCap is
// the fan-out of inner nodes. Both give 256-byte nodes (4 cache lines).
const (
	leafCap  = 32
	innerCap = 32
	// nodeBytes is the simulated footprint of one node.
	nodeBytes = 256
)

// level is one inner level of the tree. Its node j has children
// j*innerCap … j*innerCap+innerCap-1 of the level below (or of the
// leaves); firsts holds every such child's first key, so node j's
// separators are firsts[j*innerCap+1 : j*innerCap+innerCap].
type level struct {
	firsts []uint32
	base   int // inner-arena node index of this level's node 0
}

// Tree is a bulk-loaded B+-tree mapping uint32 keys to uint32 values.
// Duplicate keys are supported (stored adjacently). The pairs live in
// one sorted keys/vals pair of slices: leaf i is keys[i*leafCap : …].
type Tree struct {
	keys, vals []uint32
	nLeaves    int
	levels     []level // levels[0] is just above the leaves

	leafArena  mem.Buffer
	innerArena mem.Buffer
}

// BulkLoad builds a tree over the pairs (keys[i], vals[i]), with node
// storage accounted in region reg. The tree takes both slices and sorts
// them in tandem by key; the caller must not use them afterwards. An
// empty tree has one empty leaf.
func BulkLoad(space *mem.Space, name string, keys, vals []uint32, reg mem.Region) *Tree {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("btree: BulkLoad %q with %d keys and %d values", name, len(keys), len(vals)))
	}
	// Not a stable sort: the order the sort leaves equal keys in decides
	// which values LookupAll returns first, and TestLookupAllPinned pins
	// it; sort.Sort runs the same pdqsort as sort.Slice.
	sort.Sort(byKey{keys, vals})
	t := &Tree{
		keys:    keys,
		vals:    vals,
		nLeaves: max(1, (len(keys)+leafCap-1)/leafCap),
	}
	// Child c of inner level l roots the subtree that starts at leaf
	// c*innerCap^l, so its first key is keys[c*stride] with stride =
	// leafCap*innerCap^l.
	nInner := 0
	stride := leafCap
	for n := t.nLeaves; n > 1; n = (n + innerCap - 1) / innerCap {
		lv := level{firsts: make([]uint32, n), base: nInner}
		for c := range lv.firsts {
			lv.firsts[c] = t.keys[c*stride]
		}
		t.levels = append(t.levels, lv)
		nInner += (n + innerCap - 1) / innerCap
		stride *= innerCap
	}
	t.leafArena = space.Alloc(name+".leaves", int64(t.nLeaves)*nodeBytes, reg)
	t.innerArena = space.Alloc(name+".inner", int64(max(1, nInner))*nodeBytes, reg)
	return t
}

// byKey sorts keys and their vals in tandem.
type byKey struct{ keys, vals []uint32 }

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
}

// lowerBound returns the index of the first key in s that is >= key, or
// len(s): sort.Search without the closure, over one node's ≤ 32 keys.
func lowerBound(s []uint32, key uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// visit charges one node access at byte offset off of arena a: two
// dependent line loads (header/keys, then children or values) and 3 work
// cycles for the binary search over its ≤ 32 keys.
func visit(th *engine.Thread, a *mem.Buffer, off int64, tok engine.Tok) engine.Tok {
	tok = th.Load(a, off, 64, tok)
	tok = th.Load(a, off+128, 64, engine.After(tok, 1))
	th.Work(3)
	return tok
}

// LookupAll appends all values stored under key to out, charging the
// descent to thread th. dep is the token the key became available at;
// the returned token is when the last value is.
//
// Duplicates are adjacent and may span several leaves, so the descent
// takes the leftmost viable child (lower-bound on the separators: a
// separator equal to key means the run can begin in the child left of
// it), then walks right across leaves until the run ends.
func (t *Tree) LookupAll(th *engine.Thread, key uint32, dep engine.Tok, out []uint32) ([]uint32, engine.Tok) {
	node := 0
	tok := dep
	for lv := len(t.levels) - 1; lv >= 0; lv-- {
		l := &t.levels[lv]
		tok = visit(th, &t.innerArena, int64(l.base+node)*nodeBytes, tok)
		lo := node * innerCap
		seps := l.firsts[lo+1 : min(lo+innerCap, len(l.firsts))]
		node = lo + lowerBound(seps, key)
	}
	// The leftmost descent can land one leaf early when key equals a
	// separator; the walk crosses leaf boundaries while the run may
	// still continue (idx ran off the leaf's end).
	for ; node < t.nLeaves; node++ {
		tok = visit(th, &t.leafArena, int64(node)*nodeBytes, tok)
		lo := node * leafCap
		keys := t.keys[lo:min(lo+leafCap, len(t.keys))]
		idx := lowerBound(keys, key)
		for ; idx < len(keys) && keys[idx] == key; idx++ {
			out = append(out, t.vals[lo+idx])
		}
		if idx < len(keys) {
			break // ran past key: the run (if any) ended in this leaf
		}
	}
	return out, engine.After(tok, 1)
}
