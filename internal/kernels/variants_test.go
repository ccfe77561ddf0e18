package kernels

import (
	"fmt"
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
)

// The variant tests allocate variantN tuples and process
// [variantLo, variantHi): offset from 0 and ending off a batch boundary,
// so every kernel runs both its batched body and its scalar tail.
const variantN, variantLo, variantHi = 1000, 3, 995

// TestHistogramVariants checks every Histogram variant against plain-Go
// bin counts, on both engine paths with identical charged stats.
func TestHistogramVariants(t *testing.T) {
	const shift, bits, base = 3, 4, 16
	for _, tc := range []struct {
		name   string
		unroll int
		avx    bool
	}{
		{"scalar", 1, false},
		{"unrolled", ScalarRegBudget, false},
		{"spilled", 2 * ScalarRegBudget, false},
		{"avx", AVXRegBudget, true},
		{"avx-spilled", AVXRegBudget + AVXLanes, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats [2]engine.Stats
			for i, ref := range []bool{false, true} {
				cfg := testConfig(ref)
				sp := mem.NewSpace(cfg.Plat.Sockets)
				reg := mem.Region{Kind: mem.EPC}
				th := engine.NewThread(cfg, 0)
				data := sp.AllocU64("data", variantN, reg)
				fillTuples(data, 11)
				hist := sp.AllocU32("hist", base+1<<bits+base, reg)
				Histogram(th, data, variantLo, variantHi, hist, base, HistConfig{
					Shift: shift, Bits: bits, Unroll: tc.unroll, AVX: tc.avx, Spill: sp.AllocU32("spill", 64, reg),
				})
				want := make([]uint32, hist.Len())
				for _, v := range data.D[variantLo:variantHi] {
					want[base+int(mem.TupleKey(v)>>shift&(1<<bits-1))]++
				}
				for j, c := range hist.D {
					if c != want[j] {
						t.Fatalf("bin %d = %d, want %d", j, c, want[j])
					}
				}
				th.Drain()
				stats[i] = th.Stats()
			}
			if stats[0] != stats[1] {
				t.Errorf("fast and reference engines diverge:\nfast: %+v\nref:  %+v", stats[0], stats[1])
			}
		})
	}
}

// TestScatterVariants checks every Scatter variant against a plain-Go
// stable counting sort: each tuple lands at its partition cursor plus its
// rank within the partition, and every cursor ends at its partition's
// end. Both engine paths must charge identical stats. WC, not Unroll,
// selects the copy: "unrolled" (Unroll 8 without WC) must charge exactly
// the scalar copy's stats on both paths.
func TestScatterVariants(t *testing.T) {
	const shift, bits, base, outBase = 2, 5, 8, 100
	const fan = 1 << bits
	charged := map[string][2]engine.Stats{}
	for _, tc := range []struct {
		name   string
		unroll int
		wc     bool
	}{
		{"scalar", 1, false},
		{"unrolled", 8, false},
		{"wc", 8, true},
		{"wc-wide", 24, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats [2]engine.Stats
			for i, ref := range []bool{false, true} {
				cfg := testConfig(ref)
				sp := mem.NewSpace(cfg.Plat.Sockets)
				reg := mem.Region{Kind: mem.EPC}
				th := engine.NewThread(cfg, 0)
				data := sp.AllocU64("data", variantN, reg)
				fillTuples(data, 13)
				out := sp.AllocU64("out", outBase+variantN, reg)
				cur := sp.AllocU32("cur", base+fan, reg)
				sc := ScatterConfig{Shift: shift, Bits: bits, Unroll: tc.unroll}
				if tc.wc {
					sc.WC = sp.AllocU64("wc", fan*8, reg)
				}

				digit := func(v uint64) int { return int(mem.TupleKey(v) >> shift & (fan - 1)) }
				next := make([]int, fan) // plain-Go cursors
				for _, v := range data.D[variantLo:variantHi] {
					next[digit(v)]++
				}
				pos := outBase
				for p := range next {
					cur.D[base+p] = uint32(pos)
					pos, next[p] = pos+next[p], pos
				}
				want := make([]uint64, out.Len())
				for _, v := range data.D[variantLo:variantHi] {
					want[next[digit(v)]] = v
					next[digit(v)]++
				}

				Scatter(th, data, variantLo, variantHi, out, cur, base, sc)
				for j, v := range out.D {
					if v != want[j] {
						t.Fatalf("out[%d] = %#x, want %#x", j, v, want[j])
					}
				}
				for p, end := range next {
					if got := int(cur.D[base+p]); got != end {
						t.Fatalf("cursor %d ends at %d, want %d", p, got, end)
					}
				}
				th.Drain()
				stats[i] = th.Stats()
			}
			if stats[0] != stats[1] {
				t.Errorf("fast and reference engines diverge:\nfast: %+v\nref:  %+v", stats[0], stats[1])
			}
			charged[tc.name] = stats
		})
	}
	if charged["unrolled"] != charged["scalar"] {
		t.Errorf("Unroll without WC changed the charged stats:\nunrolled: %+v\nscalar:   %+v",
			charged["unrolled"], charged["scalar"])
	}
}

// TestPrefixSum checks the in-place exclusive prefix sum against plain Go.
func TestPrefixSum(t *testing.T) {
	cfg := testConfig(false)
	sp := mem.NewSpace(cfg.Plat.Sockets)
	th := engine.NewThread(cfg, 0)
	hist := sp.AllocU32("hist", 12, mem.Region{Kind: mem.EPC})
	counts := []uint32{3, 0, 7, 1, 0, 0, 9, 2}
	copy(hist.D[2:], counts)
	total := PrefixSum(th, hist, 2, len(counts), 5)
	sum := uint32(5)
	for i, c := range counts {
		if hist.D[2+i] != sum {
			t.Fatalf("hist[%d] = %d, want %d", 2+i, hist.D[2+i], sum)
		}
		sum += c
	}
	if total != sum || hist.D[0] != 0 || hist.D[10] != 0 {
		t.Fatalf("total %d (want %d), or a counter outside the row changed: %v", total, sum, hist.D)
	}
}

// TestAccessKernelsEngineEquivalence runs the random-access and
// streaming micro-benchmarks on both engine paths: the charged cycles
// must match and be non-zero.
func TestAccessKernelsEngineEquivalence(t *testing.T) {
	for _, write := range []bool{false, true} {
		t.Run(fmt.Sprintf("write=%v", write), func(t *testing.T) {
			var cycles [2][3]uint64
			for i, ref := range []bool{false, true} {
				cfg := testConfig(ref)
				sp := mem.NewSpace(cfg.Plat.Sockets)
				th := engine.NewThread(cfg, 0)
				buf := sp.Raw("arr", 1<<20, mem.Region{Kind: mem.EPC})
				cycles[i] = [3]uint64{
					RandomAccess(th, buf, 1000, write, 5),
					GatherAccess(th, buf, 1000, write, 5),
					StreamRead(th, buf, 4096, 100<<10),
				}
			}
			if cycles[0] != cycles[1] {
				t.Errorf("fast %v != reference %v", cycles[0], cycles[1])
			}
			for _, c := range cycles[0] {
				if c == 0 {
					t.Errorf("a kernel charged no cycles: %v", cycles[0])
				}
			}
		})
	}
}
