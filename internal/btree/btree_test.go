package btree_test

import (
	"testing"

	"sgxbench/internal/btree"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/platform"
)

func testEnv(ref bool) *core.Env {
	return core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   core.SGXDiE,
		Reference: ref,
	})
}

// buildTree bulk-loads n keys 0..n-1 with value = 3*key, shuffled
// deterministically so BulkLoad's sort actually works.
func buildTree(env *core.Env, n int) *btree.Tree {
	pairs := make([]kv, n)
	for i := 0; i < n; i++ {
		j := (i*2654435761 + 13) % n // deterministic shuffle of 0..n-1
		pairs[i] = kv{uint32(j), uint32(3 * j)}
	}
	return load(env, "idx", pairs)
}

// kv is one key-value pair a test loads.
type kv struct{ k, v uint32 }

// load bulk-loads pairs, split into the key and value slices BulkLoad
// sorts in tandem.
func load(env *core.Env, name string, pairs []kv) *btree.Tree {
	keys, vals := make([]uint32, len(pairs)), make([]uint32, len(pairs))
	for i, p := range pairs {
		keys[i], vals[i] = p.k, p.v
	}
	return btree.BulkLoad(env.Space, name, keys, vals, env.DataRegion())
}

// TestLookupCorrectness: every loaded key resolves to its one value; keys
// outside the loaded range miss.
func TestLookupCorrectness(t *testing.T) {
	env := testEnv(false)
	const n = 10_000
	tr := buildTree(env, n)
	th := env.NewThread()
	for _, k := range []uint32{0, 1, 31, 32, 33, 1023, 1024, 4999, n - 1} {
		if out, _ := tr.LookupAll(th, k, 0, nil); len(out) != 1 || out[0] != 3*k {
			t.Errorf("LookupAll(%d) = %v; want [%d]", k, out, 3*k)
		}
	}
	if out, _ := tr.LookupAll(th, n, 0, nil); len(out) != 0 {
		t.Errorf("LookupAll(%d) = %v for a key past the loaded range", n, out)
	}
	// A multi-level tree: 10k keys / 32 per leaf = 313 leaves -> 2 inner
	// levels of fan-out 32.
	if tr.Height() != 2 {
		t.Errorf("Height() = %d, want 2", tr.Height())
	}
	if want := (n + 31) / 32; tr.Leaves() != want {
		t.Errorf("Leaves() = %d, want %d", tr.Leaves(), want)
	}
}

// TestLookupAllDuplicates: duplicate keys are returned completely, even
// when one key's run spans multiple leaves.
func TestLookupAllDuplicates(t *testing.T) {
	env := testEnv(false)
	// 100 copies of key 7 (spanning >3 leaves of 32), plus neighbours.
	var pairs []kv
	for i := 0; i < 100; i++ {
		pairs = append(pairs, kv{7, uint32(1000 + i)})
	}
	for i := 0; i < 500; i++ {
		k := uint32(i)
		if k == 7 {
			continue
		}
		pairs = append(pairs, kv{k, k})
	}
	tr := load(env, "dup", pairs)
	th := env.NewThread()
	out, _ := tr.LookupAll(th, 7, 0, nil)
	if len(out) != 100 {
		t.Fatalf("LookupAll(7) returned %d values, want 100", len(out))
	}
	seen := map[uint32]bool{}
	for _, v := range out {
		if v < 1000 || v >= 1100 || seen[v] {
			t.Fatalf("LookupAll(7) returned wrong/duplicate value %d", v)
		}
		seen[v] = true
	}
	if out, _ := tr.LookupAll(th, 600, 0, nil); len(out) != 0 {
		t.Errorf("LookupAll(600) returned %d values for an absent key", len(out))
	}
}

// TestLookupCostDecomposition pins the per-op reference decomposition of
// one descent: per level (inner levels + the leaf) the engine is charged
// exactly two dependent 64-byte line loads and 3 work cycles for the
// binary search — so a lookup costs 2*(height+1) loads and the dependent
// chain never overlaps (RandomFills == DRAM-missing loads).
func TestLookupCostDecomposition(t *testing.T) {
	env := testEnv(true) // per-op reference path
	tr := buildTree(env, 10_000)
	th := env.NewThread()
	before := th.Stats()
	out, _ := tr.LookupAll(th, 4999, 0, nil)
	th.Drain()
	if len(out) != 1 {
		t.Fatalf("LookupAll(4999) returned %d values, want 1", len(out))
	}
	d := th.Stats().Sub(before)
	levels := uint64(tr.Height() + 1)
	if want := 2 * levels; d.Loads != want {
		t.Errorf("Loads = %d, want %d (2 per level over %d levels)", d.Loads, want, levels)
	}
	if want := 3 * levels; d.WorkCycles != want {
		t.Errorf("WorkCycles = %d, want %d (3 per level)", d.WorkCycles, want)
	}
	if d.Stores != 0 {
		t.Errorf("Stores = %d, want 0 (lookups are read-only)", d.Stores)
	}
	if fills := d.StreamFills; fills != 0 {
		t.Errorf("StreamFills = %d, want 0 (descent is a dependent pointer chain)", fills)
	}
	if d.L1Hits+d.L2Hits+d.L3Hits+d.DRAMAcc != d.Loads {
		t.Errorf("hit levels don't partition the loads: %+v", d)
	}
}

// TestGoldenLookupEquivalence: a fixed lookup sequence must charge
// bit-identical stats on the fast and per-op reference engine paths
// (the package-level invariant every operator upholds).
func TestGoldenLookupEquivalence(t *testing.T) {
	run := func(ref bool) engine.Stats {
		env := testEnv(ref)
		tr := buildTree(env, 10_000)
		th := env.NewThread()
		var tok engine.Tok
		var out []uint32
		for i := 0; i < 512; i++ {
			k := uint32((i * 2654435761) % 10_000)
			out, tok = tr.LookupAll(th, k, tok, out[:0])
			if len(out) != 1 {
				t.Fatalf("LookupAll(%d) = %d values, want 1", k, len(out))
			}
		}
		th.Drain()
		return th.Stats()
	}
	refStats := run(true)
	fastStats := run(false)
	if refStats != fastStats {
		t.Errorf("fast path changed simulated stats:\nref:  %+v\nfast: %+v", refStats, fastStats)
	}
	if refStats.Cycles == 0 || refStats.Loads == 0 {
		t.Errorf("degenerate run: %+v", refStats)
	}
}

// TestBulkLoadAccounting: node storage is charged to the data region in
// whole simulated nodes.
func TestBulkLoadAccounting(t *testing.T) {
	env := testEnv(false)
	used := env.Space.Used(env.DataRegion())
	tr := buildTree(env, 10_000)
	grew := env.Space.Used(env.DataRegion()) - used
	// 313 leaves + 10 inner (level 0) + 1 root, 256 B each, page-rounded.
	minBytes := int64(tr.Leaves()) * 256
	if grew < minBytes {
		t.Errorf("arena accounting grew %d bytes, want >= %d", grew, minBytes)
	}
}

// TestBulkLoadLengthMismatch: keys and values of different lengths are a
// caller's bug, named before anything is sorted.
func TestBulkLoadLengthMismatch(t *testing.T) {
	env := testEnv(false)
	defer func() {
		if r := recover(); r == nil {
			t.Error("BulkLoad of 3 keys and 2 values did not panic")
		}
	}()
	btree.BulkLoad(env.Space, "bad", make([]uint32, 3), make([]uint32, 2), env.DataRegion())
}
