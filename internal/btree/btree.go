// Package btree implements the bulk-loaded B+-tree index used by the
// index nested loop join (INL, Section 4). Lookups descend a dependent
// pointer chain — each node address comes from the previous node's
// search — so probes over indexes larger than the LLC serialize on
// memory latency, the access pattern whose enclave overhead Section 4.1
// quantifies.
package btree

import (
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

type leaf struct {
	keys []uint32
	vals []uint32
}

type inner struct {
	keys     []uint32 // separator keys, len = len(children)-1
	children []int32  // child node ids (level below)
}

// Tree is a bulk-loaded B+-tree mapping uint32 keys to uint32 values.
// Duplicate keys are supported (stored adjacently).
type Tree struct {
	leaves []leaf
	levels [][]inner // levels[0] is just above the leaves
	height int       // number of inner levels
	// levelBase[l] is the inner-arena node index of levels[l][0]: the
	// levels are laid out back to back, leaves-up.
	levelBase []int

	leafArena  mem.Buffer
	innerArena mem.Buffer
}

// KV is one key-value pair for bulk loading.
type KV struct {
	K uint32
	V uint32
}

// BulkLoad builds a tree from pairs (sorted in place by key) with node
// storage accounted in region reg.
func BulkLoad(space *mem.Space, name string, pairs []KV, reg mem.Region) *Tree {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].K < pairs[j].K })
	t := &Tree{}
	// Leaves.
	for lo := 0; lo < len(pairs); lo += leafCap {
		hi := lo + leafCap
		if hi > len(pairs) {
			hi = len(pairs)
		}
		lf := leaf{keys: make([]uint32, 0, hi-lo), vals: make([]uint32, 0, hi-lo)}
		for _, p := range pairs[lo:hi] {
			lf.keys = append(lf.keys, p.K)
			lf.vals = append(lf.vals, p.V)
		}
		t.leaves = append(t.leaves, lf)
	}
	if len(t.leaves) == 0 {
		t.leaves = append(t.leaves, leaf{})
	}
	// Inner levels: each groups innerCap children.
	childKeys := make([]uint32, len(t.leaves))
	for i, lf := range t.leaves {
		if len(lf.keys) > 0 {
			childKeys[i] = lf.keys[0]
		}
	}
	nChildren := len(t.leaves)
	for nChildren > 1 {
		var level []inner
		var nextKeys []uint32
		for lo := 0; lo < nChildren; lo += innerCap {
			hi := lo + innerCap
			if hi > nChildren {
				hi = nChildren
			}
			in := inner{}
			for c := lo; c < hi; c++ {
				in.children = append(in.children, int32(c))
				if c > lo {
					in.keys = append(in.keys, childKeys[c])
				}
			}
			level = append(level, in)
			nextKeys = append(nextKeys, childKeys[lo])
		}
		t.levels = append(t.levels, level)
		childKeys = nextKeys
		nChildren = len(level)
	}
	t.height = len(t.levels)
	nInner := 0
	for _, lv := range t.levels {
		t.levelBase = append(t.levelBase, nInner)
		nInner += len(lv)
	}
	t.leafArena = space.Alloc(name+".leaves", int64(len(t.leaves))*nodeBytes, reg)
	if nInner == 0 {
		nInner = 1
	}
	t.innerArena = space.Alloc(name+".inner", int64(nInner)*nodeBytes, reg)
	return t
}

// Height returns the number of inner levels above the leaves.
func (t *Tree) Height() int { return t.height }

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return len(t.leaves) }

// innerOff returns the arena offset of node id at inner level lv.
func (t *Tree) innerOff(lv, id int) int64 {
	return int64(t.levelBase[lv]+id) * nodeBytes
}

// Lookup finds key, charging the descent to thread th. dep is the token
// the key became available at. It returns the value, whether the key was
// found, and the token of the matching leaf entry.
func (t *Tree) Lookup(th *engine.Thread, key uint32, dep engine.Tok) (uint32, bool, engine.Tok) {
	child := 0
	tok := dep
	// Descend inner levels from the root (top of t.levels) to the leaves.
	for lv := t.height - 1; lv >= 0; lv-- {
		n := &t.levels[lv][child]
		// Two dependent line loads per node: header/keys, then children.
		tok = th.Load(&t.innerArena, t.innerOff(lv, child), 64, tok)
		tok = th.Load(&t.innerArena, t.innerOff(lv, child)+128, 64, engine.After(tok, 1))
		th.Work(3) // binary search over <=31 keys
		idx := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
		child = int(n.children[idx])
	}
	lf := &t.leaves[child]
	tok = th.Load(&t.leafArena, int64(child)*nodeBytes, 64, tok)
	tok = th.Load(&t.leafArena, int64(child)*nodeBytes+128, 64, engine.After(tok, 1))
	th.Work(3)
	idx := sort.Search(len(lf.keys), func(i int) bool { return lf.keys[i] >= key })
	if idx < len(lf.keys) && lf.keys[idx] == key {
		return lf.vals[idx], true, engine.After(tok, 1)
	}
	return 0, false, engine.After(tok, 1)
}

// LookupAll appends all values stored under key to out (duplicates are
// adjacent, possibly spanning several leaves).
//
// Unlike Lookup — which may land on any leaf holding the key — the
// descent here takes the leftmost viable child (lower-bound on the
// separators: a separator equal to key means the run can begin in the
// child left of it), then walks right across leaves until the run ends.
func (t *Tree) LookupAll(th *engine.Thread, key uint32, dep engine.Tok, out []uint32) ([]uint32, engine.Tok) {
	child := 0
	tok := dep
	for lv := t.height - 1; lv >= 0; lv-- {
		n := &t.levels[lv][child]
		tok = th.Load(&t.innerArena, t.innerOff(lv, child), 64, tok)
		tok = th.Load(&t.innerArena, t.innerOff(lv, child)+128, 64, engine.After(tok, 1))
		th.Work(3)
		idx := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		child = int(n.children[idx])
	}
	// The leftmost descent can land one leaf early when key equals a
	// separator; the walk crosses leaf boundaries while the run may
	// still continue (idx ran off the leaf's end).
	for child < len(t.leaves) {
		lf := &t.leaves[child]
		tok = th.Load(&t.leafArena, int64(child)*nodeBytes, 64, tok)
		tok = th.Load(&t.leafArena, int64(child)*nodeBytes+128, 64, engine.After(tok, 1))
		th.Work(3)
		idx := sort.Search(len(lf.keys), func(i int) bool { return lf.keys[i] >= key })
		for ; idx < len(lf.keys) && lf.keys[idx] == key; idx++ {
			out = append(out, lf.vals[idx])
		}
		if idx < len(lf.keys) {
			break // ran past key: the run (if any) ended in this leaf
		}
		child++ // key may continue (or begin) in the next leaf
	}
	return out, engine.After(tok, 1)
}
