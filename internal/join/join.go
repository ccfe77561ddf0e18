// Package join implements the five parallel equi-join algorithms the
// paper benchmarks (Section 4):
//
//   - PHT: the no-partitioning Parallel Hash Table join (Blanas et al.),
//     a shared chained hash table built and probed by all threads.
//   - RHO: the Radix Hash Optimized join — two-pass parallel radix
//     partitioning into cache-sized partitions, then in-cache build and
//     probe per partition. The Optimized flag enables the paper's
//     unroll + reorder kernels (Section 4.2).
//   - MWAY: multi-way sort-merge join — parallel chunk sorting, multi-way
//     merge, then a linear merge-join pass.
//   - INL: index nested loop join over a pre-built B+-tree.
//   - CrkJoin: the SGXv1-optimized cracking join (Maliszewski et al.) with
//     its bit-at-a-time in-place partitioning and thread-doubling
//     schedule, included to show that SGXv1 designs do not carry over.
//
// All algorithms return bit-identical match counts (and materialized
// outputs, when requested) in every execution setting: the engine models
// time, never values.
package join

import (
	"fmt"
	"math/bits"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// Options configures a join run.
type Options struct {
	// Threads is the number of worker threads (default 1).
	Threads int
	// Optimized enables the unroll + reorder kernels (the paper's "O"
	// settings in Figures 6 and 9).
	Optimized bool
	// Materialize writes output tuples (probe payload, build payload)
	// instead of only counting matches (Section 4.4, Fig 12).
	Materialize bool
	// OutBufs, when Materialize is set, provides pre-allocated per-thread
	// output buffers (index = thread id). Materialized rows then land at
	// deterministic simulated addresses instead of dynamically claimed
	// chunks, making multi-threaded materializing runs reproducible for
	// exact stats comparison (pipelines, golden gates). A buffer that
	// fills up falls back to chunk claims for the excess rows.
	OutBufs []*mem.U64Buf
}

// outBuf returns thread id's pre-allocated output buffer, if any.
func (o Options) outBuf(id int) *mem.U64Buf {
	if id < len(o.OutBufs) {
		return o.OutBufs[id]
	}
	return nil
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// Result reports a completed join.
type Result struct {
	Algorithm  string
	Matches    uint64
	WallCycles uint64
	// Phases is the barrier-phase breakdown (names depend on algorithm;
	// RHO: Hist1, Copy1, Hist2, Copy2, Join).
	Phases []exec.PhaseStats
	// BuildCycles/ProbeCycles split the in-cache join phase of RHO and
	// CrkJoin (aggregated across threads), and the build/probe phases of
	// PHT; used for the Fig 4/6 breakdowns.
	BuildCycles uint64
	ProbeCycles uint64
	// Output holds materialized output rows per thread (when requested).
	Output [][]uint64
	// Stats aggregates engine counters over all phases.
	Stats engine.Stats
}

// Throughput returns the paper's join throughput metric: the sum of the
// input cardinalities divided by the wall time.
func (r *Result) Throughput(env *core.Env, nR, nS int) float64 {
	return env.Throughput(nR+nS, r.WallCycles)
}

// Algorithm is one join implementation.
type Algorithm interface {
	Name() string
	Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error)
}

// ByName returns the algorithm with the given name: one of the paper's
// five (All) or the oversubscription-aware spill join (GRACE).
func ByName(name string) (Algorithm, error) {
	for _, a := range append(All(), NewGrace()) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("join: unknown algorithm %q", name)
}

// All returns the five algorithms in the paper's Figure 3 order. The
// spill-partitioned GRACE join is deliberately not part of this list —
// the Figure 1/3 shape tests quantify exactly these five — and is
// reachable via ByName and its own tests instead.
func All() []Algorithm {
	return []Algorithm{NewPHT(), NewRHO(), NewMWAY(), NewINL(), NewCrk()}
}

// hashKey is the join-key hash used by the hash-based algorithms:
// a multiplicative (Fibonacci) hash, cheap and well-distributed.
func hashKey(k uint32) uint32 { return k * 2654435761 }

// hashIdx maps a key to a table of 2^bits buckets using the *high* bits
// of the multiplicative hash. Using high bits is essential inside radix
// partitions: the low key bits are constant within a partition (they are
// the radix digits), so low-bit indexing would collapse every partition
// into a couple of buckets.
func hashIdx(k uint32, bits uint) uint32 { return hashKey(k) >> (32 - bits) }

// log2 returns floor(log2(n)) for a power-of-two n.
func log2(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n)) - 1)
}

// hashCost is the dataflow latency from key to hash/bucket index.
const hashCost = 2

// nextPow2 returns the next power of two >= n (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
