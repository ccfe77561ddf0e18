package kernels

import (
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
)

// RandomAccess is the Section 4.1 micro-benchmark: read or write 8-byte
// integers at random positions of an array, positions produced by a
// linear congruential generator (kept in registers, so the accesses are
// address-independent of one another and overlap up to the MLP limit).
// It returns the consumed cycles.
func RandomAccess(t *engine.Thread, buf mem.Buffer, ops int, write bool, seed uint64) uint64 {
	start := t.Cycle()
	lcg := rng.NewLCG(seed)
	slots := uint64(buf.Size / 8)
	if slots == 0 {
		slots = 1
	}
	for i := 0; i < ops; i++ {
		off := int64(lcg.Uint64n(slots)) * 8
		t.Work(1) // LCG advance (mul+add, pipelined)
		if write {
			t.Store(&buf, off, 8, 0, 0)
		} else {
			t.Load(&buf, off, 8, 0)
		}
	}
	t.Drain()
	return t.Cycle() - start
}

// GatherAccess is the RandomAccess micro-benchmark restructured over the
// batched gather/scatter APIs: the same LCG offset stream, collected into
// address batches and issued through one engine invocation per batch (the
// unrolled codegen of the Fig 5 loop). Returns the consumed cycles.
func GatherAccess(t *engine.Thread, buf mem.Buffer, ops int, write bool, seed uint64) uint64 {
	const batch = 64
	start := t.Cycle()
	lcg := rng.NewLCG(seed)
	slots := uint64(buf.Size / 8)
	if slots == 0 {
		slots = 1
	}
	offs := make([]int64, batch)
	for i := 0; i < ops; i += batch {
		n := ops - i
		if n > batch {
			n = batch
		}
		for j := 0; j < n; j++ {
			offs[j] = int64(lcg.Uint64n(slots)) * 8
		}
		t.Work(uint64(n)) // LCG advances (mul+add, pipelined)
		if write {
			t.StoreScatter(&buf, 8, offs[:n], nil, nil)
		} else {
			t.LoadGather(&buf, 8, offs[:n], nil, nil)
		}
	}
	t.Drain()
	return t.Cycle() - start
}

// StreamRead reads n bytes sequentially (line-granular vector loads),
// the access pattern of a column scan, charged through the batched bulk
// API one 4 KiB block at a time. Returns consumed cycles.
func StreamRead(t *engine.Thread, buf mem.Buffer, off, n int64) uint64 {
	const blockBytes = 4096
	start := t.Cycle()
	for o := off; o < off+n; o += blockBytes {
		nb := off + n - o
		if nb > blockBytes {
			nb = blockBytes
		}
		t.LoadLines(&buf, o, int((nb+63)/64), 0)
	}
	t.Drain()
	return t.Cycle() - start
}
