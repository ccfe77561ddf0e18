package kernels

import "sgxbench/internal/engine"

// Scratch is one simulated thread's host working memory for the
// unrolled histogram and the write-combining copy: the Unroll-sized
// index, token and offset batches, and the per-partition staging state
// of the copy. An operator makes one per thread per run and passes it in
// every HistConfig and ScatterConfig that thread uses, so a radix pass
// that calls a kernel once per partition allocates nothing per call. The
// slices grow to the largest Unroll and fan-out seen. A Scratch holds no
// simulated state, and it must not be shared by threads that run at the
// same time.
type Scratch struct {
	idx  []int        // histogram bin per batch element
	tok  []engine.Tok // key-load tokens per batch element
	dep  []engine.Tok // histogram: spilled-index store tokens; copy: partition tokens
	line []engine.Tok // vector (line) load tokens
	off  []int64      // histogram bin offsets; copy staging offsets

	staged  []int        // tuples in partition p's WC line
	flushAt []int        // fill level that completes p's current line
	wcTok   []engine.Tok // last staging store of p's line
}

// orNew returns s, or a fresh Scratch for one call when s is nil.
func (s *Scratch) orNew() *Scratch {
	if s == nil {
		return &Scratch{}
	}
	return s
}

// fit returns buf resized to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
