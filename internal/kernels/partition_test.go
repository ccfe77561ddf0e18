package kernels

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
)

// testConfig is a DiE-style engine configuration (enclave mode; callers
// put data in EPC regions) on either engine path.
func testConfig(ref bool) engine.Config {
	return engine.Config{
		Plat: platform.XeonGold6326().Scaled(256), Mode: engine.Enclave,
		Costs: engine.DefaultSGXCosts(), Reference: ref,
	}
}

// passRun is the outcome of a first cooperative RadixPass over [0, n)
// followed by a refining pass over its partitions.
type passRun struct {
	in, mid, out []uint64 // input, first-pass and refining-pass output
	start1       []int
	start2       []int
	stats        []engine.Stats // per thread, after both passes
}

// runPasses partitions n random tuples on threads threads: a first pass
// on the low log2(fan) key bits, then a refining pass on the next
// log2(fan) bits, both through Histogram and Scatter.
func runPasses(ref bool, threads, fan, n int) passRun {
	cfg := testConfig(ref)
	sp := mem.NewSpace(cfg.Plat.Sockets)
	reg := mem.Region{Kind: mem.EPC}
	g := exec.NewGroup(cfg, threads, nil)
	b := uint(bits.TrailingZeros(uint(fan)))

	in := sp.AllocU64("in", max(n, 1), reg)
	fillTuples(in, uint64(7*n+fan))
	mid := sp.AllocU64("mid", max(n, 1), reg)
	out := sp.AllocU64("out", max(n, 1), reg)
	pass := func(prev []int, rows int, src, dst *mem.U64Buf, shift uint) []int {
		hist := sp.AllocU32("hist", rows*fan, reg)
		cur := sp.AllocU32("cur", rows*fan, reg)
		return RadixPass(g, "Hist", "Copy", prev, fan, hist, cur,
			func(t *engine.Thread, id, lo, hi, base int) {
				Histogram(t, src, lo, hi, hist, base, HistConfig{Shift: shift, Bits: b, Unroll: 1})
			},
			func(t *engine.Thread, id, lo, hi, base int) {
				Scatter(t, src, lo, hi, dst, cur, base, ScatterConfig{Shift: shift, Bits: b, Unroll: 1})
			})
	}
	r := passRun{in: in.D[:n]}
	r.start1 = pass([]int{0, n}, threads, in, mid, 0)
	r.start2 = pass(r.start1, fan, mid, out, b)
	r.mid, r.out = mid.D[:n], out.D[:n]
	for _, t := range g.Threads {
		r.stats = append(r.stats, t.Stats())
	}
	return r
}

// checkLevel checks one pass's output against plain Go: got is a
// permutation of in, every tuple lies in its digit's [start[p],
// start[p+1]), and start is the prefix sum of the digit counts.
func checkLevel(t *testing.T, in, got []uint64, start []int, digit func(uint64) int) {
	t.Helper()
	counts := make([]int, len(start)-1)
	for _, v := range in {
		counts[digit(v)]++
	}
	want := make([]int, len(start))
	for p, c := range counts {
		want[p+1] = want[p] + c
	}
	if !slices.Equal(start, want) {
		t.Fatalf("starts %v, want %v", start, want)
	}
	for p := 0; p+1 < len(start); p++ {
		for i := start[p]; i < start[p+1]; i++ {
			if d := digit(got[i]); d != p {
				t.Fatalf("tuple %#x at %d has digit %d, lies in partition %d", got[i], i, d, p)
			}
		}
	}
	a, b := slices.Clone(in), slices.Clone(got)
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Fatal("output is not a permutation of the input")
	}
}

// TestRadixPass checks the first (cooperative) and the refining pass
// against plain Go over thread counts, fan-outs and sizes, and that the
// fast and the reference engine charge them identically.
func TestRadixPass(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4} {
		for _, fan := range []int{2, 16, 256} {
			for _, n := range []int{0, 1, 7, 5000} {
				t.Run(fmt.Sprintf("T%d/fan%d/n%d", threads, fan, n), func(t *testing.T) {
					r := runPasses(false, threads, fan, n)
					mask := uint32(fan - 1)
					b := bits.TrailingZeros(uint(fan))
					checkLevel(t, r.in, r.mid, r.start1, func(v uint64) int {
						return int(mem.TupleKey(v) & mask)
					})
					// The refined level is ordered by the first digit, then
					// the second: partition p1*fan+p2.
					checkLevel(t, r.in, r.out, r.start2, func(v uint64) int {
						k := mem.TupleKey(v)
						return int(k&mask)*fan + int(k>>b&mask)
					})
					if ref := runPasses(true, threads, fan, n); !reflect.DeepEqual(r.stats, ref.stats) {
						t.Errorf("fast and reference engines diverge:\nfast: %+v\nref:  %+v", r.stats, ref.stats)
					}
				})
			}
		}
	}
}

// TestRadixPassMultiThreadDeterminism runs the same four-thread passes
// twice: the threads of a phase must not change a tuple, a start or a
// stat between runs.
func TestRadixPassMultiThreadDeterminism(t *testing.T) {
	a, b := runPasses(false, 4, 16, 20000), runPasses(false, 4, 16, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical multi-threaded runs diverged")
	}
}

// TestSplitBits covers the pass-bit split, including no bits, fewer bits
// than one pass takes, and exact multiples of the pass width.
func TestSplitBits(t *testing.T) {
	for _, tc := range []struct {
		total, per uint
		want       []uint
	}{
		{0, 8, nil},
		{3, 8, []uint{3}},
		{8, 8, []uint{8}},
		{16, 8, []uint{8, 8}},
		{20, 8, []uint{8, 8, 4}},
		{5, 2, []uint{2, 2, 1}},
		{3, 1, []uint{1, 1, 1}},
	} {
		if got := SplitBits(tc.total, tc.per); !slices.Equal(got, tc.want) {
			t.Errorf("SplitBits(%d, %d) = %v, want %v", tc.total, tc.per, got, tc.want)
		}
	}
}

// TestDrain checks the staging copy lands src[lo:hi] at dst[at:], leaves
// the rest of dst alone, and charges nothing for an empty range.
func TestDrain(t *testing.T) {
	cfg := testConfig(false)
	sp := mem.NewSpace(cfg.Plat.Sockets)
	th := engine.NewThread(cfg, 0)
	src := sp.AllocU64("src", 100, mem.Region{Kind: mem.EPC})
	dst := sp.AllocU64("dst", 100, mem.Region{Kind: mem.Untrusted})
	fillTuples(src, 3)

	before := th.Stats()
	Drain(th, src, 40, 40, dst, 0)
	if th.Stats() != before {
		t.Fatal("an empty drain charged the engine")
	}
	Drain(th, src, 10, 30, dst, 50)
	for i, v := range dst.D {
		want := uint64(0)
		if i >= 50 && i < 70 {
			want = src.D[i-40]
		}
		if v != want {
			t.Fatalf("dst[%d] = %#x, want %#x", i, v, want)
		}
	}
	if th.Stats() == before {
		t.Fatal("a drain charged nothing")
	}
}
