package join

import (
	"fmt"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// Crk is CrkJoin (Maliszewski et al. [26]), the join designed for SGXv1's
// bottlenecks: it radix-partitions both tables **in place** with a
// cracking-style two-pointer pass, one bit at a time, to avoid random
// memory accesses and enclave paging. Partitioning starts single-threaded
// and doubles the number of threads with each bit until all cores are
// busy; partitions are then joined with the same in-cache method as RHO.
//
// On SGXv2 this design is counterproductive (Figures 1 and 3): EPC paging
// is gone, so the serial early partitioning passes waste the machine's
// parallelism while the sequential access pattern no longer buys
// anything. The implementation is configured with the platform's L2 size,
// as the CrkJoin authors prescribe.
type Crk struct{}

// NewCrk returns the CrkJoin algorithm.
func NewCrk() *Crk { return &Crk{} }

// Name returns the paper's name for the algorithm.
func (*Crk) Name() string { return "CrkJoin" }

// crackBit partitions tup[lo:hi) in place by the given key bit using the
// cracking two-pointer pass: pointers move from both ends towards each
// other, swapping out-of-place tuples. Returns the split point. Loads
// stream from both ends (the prefetcher tracks both directions); swap
// stores go to the just-read positions, so addresses are known early and
// the SSB mitigation has little to bite on — CrkJoin's *relative*
// slowdown in enclaves is small even though its absolute speed is poor.
func crackBit(t *engine.Thread, tup *mem.U64Buf, lo, hi int, bit uint) int {
	// Per-element work: CrkJoin hashes every key before extracting the
	// crack bit (its partitioning operates on hash bits so that skewed
	// keys still split evenly) and maintains the cracker index bounds.
	const crackWork = 4
	// The advance-or-swap branch tests a uniformly random bit, so it
	// mispredicts roughly every other element — a dominant cost of
	// cracking-style partitioning that vectorized radix copies avoid.
	const mispredict = 14
	prevBit := uint32(0)
	charge := func(b uint32) {
		t.Work(crackWork)
		if b != prevBit {
			t.Work(mispredict)
			prevBit = b
		}
	}
	i, j := lo, hi-1
	for i <= j {
		vi, tokI := engine.LoadU64(t, tup, i, 0)
		charge(mem.TupleKey(vi) >> bit & 1)
		if mem.TupleKey(vi)>>bit&1 == 0 {
			i++
			continue
		}
		for i <= j {
			vj, tokJ := engine.LoadU64(t, tup, j, 0)
			charge(mem.TupleKey(vj) >> bit & 1)
			if mem.TupleKey(vj)>>bit&1 == 1 {
				j--
				continue
			}
			// Swap: store each tuple at the other cursor position.
			engine.StoreU64(t, tup, i, vj, 0, tokJ)
			engine.StoreU64(t, tup, j, vi, 0, tokI)
			i++
			j--
			break
		}
	}
	return i
}

// Run executes the join.
func (c *Crk) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := opt.threads()
	g := env.NewGroup(T, nil)
	defer g.Release()
	mark := g.Mark()
	res := &Result{Algorithm: c.Name()}

	// CrkJoin cracks in place: work on clones so callers keep their
	// inputs (setup, untimed).
	R := rel.Clone(env.Space, build, "R.crk", env.DataRegion())
	S := rel.Clone(env.Space, probe, "S.crk", env.DataRegion())

	// Total bits: RHO's, partitions sized for L2, as configured by the
	// authors.
	bits := kernels.PartitionBits(int64(build.N())*rel.TupleBytes, env.L2Target(), 2, 18)

	// Partition boundaries per table: 2^level+1 offsets after each level,
	// 2^bits+1 at the end.
	type table struct {
		t      *rel.Relation
		bounds []int
	}
	tabs := [2]*table{{t: R, bounds: []int{0, R.N()}}, {t: S, bounds: []int{0, S.N()}}}

	for level := uint(0); level < bits; level++ {
		active := 1 << level
		if active > T {
			active = T
		}
		bit := bits - 1 - level
		segs := 1 << level
		next := [2][]int{make([]int, 2*segs+1), make([]int, 2*segs+1)}
		g.Phase(fmt.Sprintf("Crack-%d", level), func(t *engine.Thread, id int) {
			if id >= active {
				return
			}
			for ti, tb := range tabs {
				for s := id; s < segs; s += active {
					lo, hi := tb.bounds[s], tb.bounds[s+1]
					mid := crackBit(t, tb.t.Tup, lo, hi, bit)
					next[ti][2*s] = lo
					next[ti][2*s+1] = mid
				}
			}
		})
		for ti, tb := range tabs {
			next[ti][2*segs] = tb.t.N()
			tb.bounds = next[ti]
		}
	}

	// In-cache join per partition, all threads.
	joinPartitions(env, g, "Join", R.Tup, tabs[0].bounds, S.Tup, tabs[1].bounds, 1, opt, res)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res, nil
}
