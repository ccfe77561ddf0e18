package join

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// TestPHTChainCharge: a probe walks its bucket's overflow chain with one
// dependent load per group of inlineSlots entries, of the arena line
// overflowStores wrote for the group's first tuple. On a
// duplicate-heavy build of chainKeys keys with n copies each, probed
// once per key, the arena outgrows the caches as n grows, so the probe
// phase's cycles grow by at least an L3 hit per added hop. (Charging
// every hop to one of a few fixed lines made a hop an L1 hit.)
func TestPHTChainCharge(t *testing.T) {
	const chainKeys = 64
	var prevHops, prevCycles uint64
	for _, n := range []int{64, 256, 1024} {
		env := testEnv(core.PlainCPU)
		build := rel.Alloc(env.Space, "R", chainKeys*n, env.DataRegion())
		for i := range build.Tup.D {
			build.Tup.D[i] = mem.MakeTuple(uint32(i%chainKeys+1), uint32(i))
		}
		probe := rel.Alloc(env.Space, "S", chainKeys, env.DataRegion())
		for i := range probe.Tup.D {
			probe.Tup.D[i] = mem.MakeTuple(uint32(i+1), uint32(i))
		}
		res, err := NewPHT().Run(env, build, probe, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != uint64(chainKeys*n) {
			t.Fatalf("n=%d: %d matches, want %d", n, res.Matches, chainKeys*n)
		}
		// The hops the probes take, from the table's own bucket sizes
		// (keys that share a bucket walk one longer chain).
		h := newPHTTable(testEnv(core.PlainCPU), build.N())
		h.preclaim(build)
		var hops uint64
		for _, tup := range probe.Tup.D {
			b := h.bucketOf(mem.TupleKey(tup))
			hops += uint64(h.start[b+1]-h.start[b]-1) / inlineSlots
		}
		cycles := res.Phases[len(res.Phases)-1].WallCycles
		t.Logf("n=%4d: %5d hops, %8d probe cycles", n, hops, cycles)
		if lat := env.Plat.LatL3; prevHops > 0 && cycles-prevCycles < (hops-prevHops)*lat {
			t.Errorf("n=%d: probe cycles grew %d over %d added chain hops, less than %d (an L3 hit) per hop",
				n, cycles-prevCycles, hops-prevHops, lat)
		}
		prevHops, prevCycles = hops, cycles
	}
}
