package btree_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/platform"
)

// pinCase is one bulk-loaded tree and the keys LookupAll probes in it,
// each probe depending on the previous one's token.
type pinCase struct {
	name   string
	pairs  func() []kv
	height int
	leaves int
	probes []uint32
	// counts[k] is how many values LookupAll(k) must return (0 if absent).
	counts map[uint32]int
	// digest is FNV-1a over, for every probe in order, the thread's
	// engine.Stats after the call, the returned values and the returned
	// token. It pins every simulated access of every descent and leaf
	// walk, and the order BulkLoad gives equal keys.
	digest uint64
}

// shuffled returns pairs in a fixed pseudo-random order, so BulkLoad's
// sort decides where each pair lands.
func shuffled(pairs []kv) []kv {
	out := make([]kv, len(pairs))
	n := len(pairs)
	for i := range pairs {
		out[(i*7919+13)%n] = pairs[i]
	}
	return out
}

// dupPairs lays out, in sorted order (leaf i holds positions 32i..32i+31):
//
//	positions   0..19   singles 10..200 step 10
//	positions  20..49   key 205 ×30: a run straddling leaves 0 and 1
//	positions  50..69   singles 210..400 step 10 (350 opens leaf 2)
//	positions  70..129  key 405 ×60: a run straddling leaves 2, 3 and 4
//	positions 130..159  singles 410..700 step 10
//	positions 160..191  key 705 ×32: exactly leaf 5, its separator is 705
//	positions 192..291  singles 710..1700 step 10
//
// 292 pairs, 10 leaves, one inner level. Every value is distinct.
func dupPairs() []kv {
	var p []kv
	v := uint32(0)
	add := func(k uint32, times int) {
		for ; times > 0; times-- {
			p = append(p, kv{k, v})
			v++
		}
	}
	for k := uint32(10); k <= 200; k += 10 {
		add(k, 1)
	}
	add(205, 30)
	for k := uint32(210); k <= 400; k += 10 {
		add(k, 1)
	}
	add(405, 60)
	for k := uint32(410); k <= 700; k += 10 {
		add(k, 1)
	}
	add(705, 32)
	for k := uint32(710); k <= 1700; k += 10 {
		add(k, 1)
	}
	return shuffled(p)
}

// oddPairs loads n distinct odd keys 2i+1 with value i.
func oddPairs(n int) func() []kv {
	return func() []kv {
		p := make([]kv, n)
		for i := range p {
			p[i] = kv{uint32(2*i + 1), uint32(i)}
		}
		return shuffled(p)
	}
}

func pinCases() []pinCase {
	// Three levels: 40 000 keys fill 1 250 leaves under 40 level-0 nodes,
	// 2 level-1 nodes and a root. Key 2p+1 sits at sorted position p, so
	// 65 opens leaf 1 (a level-0 separator), 2049 opens level-0 node 1 (a
	// level-1 separator) and 65537 opens level-1 node 1 (the root's).
	deep := []uint32{0, 1, 2, 63, 64, 65, 66, 2047, 2049, 2050, 65535, 65537, 65538, 79999, 80000, 1 << 31}
	deepCounts := map[uint32]int{}
	for i := 0; i < 48; i++ {
		deep = append(deep, uint32((i*2654435761)%80002))
	}
	for _, k := range deep {
		if k%2 == 1 && k < 80000 {
			deepCounts[k] = 1
		}
	}
	return []pinCase{
		{
			name:   "empty",
			pairs:  func() []kv { return nil },
			height: 0, leaves: 1,
			probes: []uint32{0, 5, 1<<32 - 1},
			digest: 0x58c023736aeb0535,
		},
		{
			name:   "single-leaf",
			pairs:  oddPairs(20),
			height: 0, leaves: 1,
			probes: []uint32{0, 1, 2, 21, 39, 40, 1000},
			counts: map[uint32]int{1: 1, 21: 1, 39: 1},
			digest: 0x59f5c630c59ad07c,
		},
		{
			name:   "duplicates",
			pairs:  dupPairs,
			height: 1, leaves: 10,
			// below; first key; run over two leaves; between; separator
			// 350; run over three leaves; between; last single before and
			// first after the leaf-sized run; the run itself; last key;
			// above.
			probes: []uint32{5, 10, 205, 207, 350, 405, 406, 700, 710, 705, 1700, 2000},
			counts: map[uint32]int{10: 1, 205: 30, 350: 1, 405: 60, 700: 1, 710: 1, 705: 32, 1700: 1},
			digest: 0x653c92210dc84a33,
		},
		{
			name:   "three-level",
			pairs:  oddPairs(40_000),
			height: 3, leaves: 1250,
			probes: deep,
			counts: deepCounts,
			digest: 0xe0a59d06e3b7862c,
		},
	}
}

// pinRun loads c on a fresh environment and probes it with LookupAll,
// returning the trajectory digest.
func pinRun(t *testing.T, c pinCase, ref bool) uint64 {
	env := core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   core.SGXDiE,
		Reference: ref,
	})
	tr := load(env, c.name, c.pairs())
	if tr.Height() != c.height || tr.Leaves() != c.leaves {
		t.Fatalf("%s: height %d, %d leaves; want %d, %d", c.name, tr.Height(), tr.Leaves(), c.height, c.leaves)
	}
	th := env.NewThread()
	h := fnv.New64a()
	var tok engine.Tok
	var out []uint32
	for _, k := range c.probes {
		out, tok = tr.LookupAll(th, k, tok, out[:0])
		if len(out) != c.counts[k] {
			t.Errorf("%s: LookupAll(%d) returned %d values, want %d", c.name, k, len(out), c.counts[k])
		}
		fmt.Fprintf(h, "%d %+v %v %d\n", k, th.Stats(), out, tok)
	}
	return h.Sum64()
}

// TestLookupAllPinned pins every LookupAll call's simulated cost, result
// and token on both engine paths, so a change to the tree's layout or
// search that charges a different node, leaf or line fails here.
func TestLookupAllPinned(t *testing.T) {
	for _, c := range pinCases() {
		fast, ref := pinRun(t, c, false), pinRun(t, c, true)
		if fast != ref {
			t.Errorf("%s: fast path digest %#016x differs from the reference path's %#016x", c.name, fast, ref)
		}
		if ref != c.digest {
			t.Errorf("%s: digest %#016x, pinned %#016x", c.name, ref, c.digest)
		}
	}
}
