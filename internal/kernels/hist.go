// Package kernels implements the low-level loops whose micro-architectural
// behaviour the paper analyzes: radix histograms (Listing 1), partition
// scatter/copy, prefix sums, and the random-access micro-benchmark.
//
// Every kernel exists in the paper's two forms: the straightforward scalar
// loop, and the unroll + reorder optimization that groups address-producing
// loads ahead of data-dependent stores to defeat the SSB-mitigation
// serialization (Section 4.2). Register pressure is modeled faithfully:
// unrolling past the architectural register budget forces spills to the
// stack, which reintroduce the dependent store→load pattern and the
// performance cliff of Fig 8.
package kernels

import (
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
)

// ScalarRegBudget is the number of computed indexes that fit in scalar
// registers before the compiler must spill (Fig 8: 9 on Ice Lake).
const ScalarRegBudget = 9

// AVXRegBudget is the number of indexes that fit when computed 8-wide
// with AVX-512 (5 vector registers x 8 lanes, Fig 8).
const AVXRegBudget = 40

// AVXLanes is the number of 8-byte tuples covered by one vector load.
const AVXLanes = 8

// keyCompute is the dataflow latency (cycles) from a loaded tuple to its
// histogram index: mask + shift.
const keyCompute = 2

// HistConfig configures a histogram kernel run.
type HistConfig struct {
	// Shift and Bits select the radix digit: idx = (key >> Shift) & (2^Bits - 1).
	Shift uint
	Bits  uint
	// Unroll is the number of indexes computed before the increments are
	// issued. 1 selects the original scalar loop.
	Unroll int
	// AVX selects 8-wide vectorized index computation.
	AVX bool
	// Spill, when non-nil, is the per-thread stack area used when Unroll
	// exceeds the register budget. Required for over-unrolled configs.
	Spill *mem.U32Buf
	// Scratch is the calling thread's host working memory (nil: one is
	// allocated for the call).
	Scratch *Scratch
}

func (c HistConfig) mask() uint32 { return uint32(1)<<c.Bits - 1 }

func (c HistConfig) budget() int {
	if c.AVX {
		return AVXRegBudget
	}
	return ScalarRegBudget
}

// Histogram counts the radix digits of tuples data[lo:hi] into
// hist[histBase : histBase+2^Bits]. It is the exact kernel of the paper's
// Listing 1, including the optimized variant, and returns nothing: counts
// land in hist.D and timing lands on t.
func Histogram(t *engine.Thread, data *mem.U64Buf, lo, hi int, hist *mem.U32Buf, histBase int, cfg HistConfig) {
	if cfg.Unroll <= 1 && !cfg.AVX {
		histScalar(t, data, lo, hi, hist, histBase, cfg)
		return
	}
	histUnrolled(t, data, lo, hi, hist, histBase, cfg)
}

// histScalar is the original loop:
//
//	for i := range data { hist[(data[i].key & mask) >> shift]++ }
//
// Each iteration loads the key, derives the bin address from it, and
// increments the bin — a data-dependent write immediately followed by the
// next iteration's load, the pattern the SSB mitigation serializes.
func histScalar(t *engine.Thread, data *mem.U64Buf, lo, hi int, hist *mem.U32Buf, histBase int, cfg HistConfig) {
	mask := cfg.mask()
	for i := lo; i < hi; i++ {
		tup, tok := engine.LoadU64(t, data, i, 0)
		idx := int((mem.TupleKey(tup) >> cfg.Shift) & mask)
		idxTok := engine.After(tok, keyCompute)
		cur, curTok := engine.LoadU32(t, hist, histBase+idx, idxTok)
		engine.StoreU32(t, hist, histBase+idx, cur+1, idxTok, engine.After(curTok, 1))
	}
}

// histUnrolled is the unroll + reorder optimization (Listing 1, second
// loop): a batch of indexes is computed first, then the increments are
// dispatched together, so store addresses are known by the time the next
// batch's loads issue. Indexes beyond the register budget spill to the
// stack and are reloaded before use, reproducing the Fig 8 cliff.
func histUnrolled(t *engine.Thread, data *mem.U64Buf, lo, hi int, hist *mem.U32Buf, histBase int, cfg HistConfig) {
	u := cfg.Unroll
	if u < 1 {
		u = 1
	}
	if cfg.AVX && u%AVXLanes != 0 {
		panic("kernels: AVX histogram unroll must be a multiple of 8")
	}
	budget := cfg.budget()
	if u > budget && cfg.Spill == nil {
		panic("kernels: over-unrolled histogram requires a spill buffer")
	}
	mask := cfg.mask()
	sc := cfg.Scratch.orNew()
	sc.idx, sc.tok, sc.off, sc.dep = fit(sc.idx, u), fit(sc.tok, u), fit(sc.off, u), fit(sc.dep, u)
	sc.line = fit(sc.line, u/AVXLanes)
	idxs, toks, offs, lineToks := sc.idx, sc.tok, sc.off, sc.line
	spilled := sc.dep // forwarding tokens of spilled indexes

	i := lo
	for ; i+u <= hi; i += u {
		// Load group: one batched run of consecutive loads, then compute
		// all indexes.
		if cfg.AVX {
			t.LoadRunToks(&data.Buffer, data.Off(i), 64, u/AVXLanes, 0, lineToks)
			for j := 0; j < u; j += AVXLanes {
				t.Work(1) // vector mask+shift over 8 lanes
				vTok := engine.After(lineToks[j/AVXLanes], keyCompute)
				for l := 0; l < AVXLanes; l++ {
					idxs[j+l] = int((mem.TupleKey(data.D[i+j+l]) >> cfg.Shift) & mask)
					toks[j+l] = engine.After(vTok, 1) // lane extract
				}
			}
		} else {
			t.LoadRunToks(&data.Buffer, data.Off(i), 8, u, 0, toks)
			for j := 0; j < u; j++ {
				idxs[j] = int((mem.TupleKey(data.D[i+j]) >> cfg.Shift) & mask)
				toks[j] = engine.After(toks[j], keyCompute)
			}
		}
		if u <= budget {
			// Store group without spills: the per-bin load + increment
			// pairs are one batched read-modify-write scatter (identical
			// per-element sequence to the per-op dispatch below).
			for j := 0; j < u; j++ {
				offs[j] = hist.Off(histBase + idxs[j])
				hist.D[histBase+idxs[j]]++
			}
			t.RMWScatter(&hist.Buffer, 4, offs, toks, nil)
			continue
		}
		// Registers beyond the budget spill to the stack.
		for j := budget; j < u; j++ {
			cfg.Spill.D[j-budget] = uint32(idxs[j])
			spilled[j] = engine.StoreU32(t, cfg.Spill, j-budget, uint32(idxs[j]), 0, toks[j])
		}
		// Store group: dispatch the increments back to back.
		for j := 0; j < u; j++ {
			idxTok := toks[j]
			if j >= budget {
				// Reload the spilled index; the reload is itself a load
				// that the mitigation orders behind this batch's stores.
				_, relTok := engine.LoadU32(t, cfg.Spill, j-budget, spilled[j])
				idxTok = relTok
			}
			cur, curTok := engine.LoadU32(t, hist, histBase+idxs[j], idxTok)
			engine.StoreU32(t, hist, histBase+idxs[j], cur+1, idxTok, engine.After(curTok, 1))
		}
	}
	// Tail.
	tail := cfg
	tail.Unroll = 1
	tail.AVX = false
	histScalar(t, data, i, hi, hist, histBase, tail)
}
