package agg

import "sgxbench/internal/rng"

// fillHostPool puts one set of host words into the pool, every word all
// ones, with room for any group-by of up to rows input rows on up to
// workers threads, and returns it.
func fillHostPool(workers, rows int) *hostWords {
	h := &hostWords{stage: ones[uint64](rows)}
	for range workers {
		h.heads = append(h.heads, ones[uint32](max(rng.NextPow2(rows), 16)))
		h.ents = append(h.ents, ones[uint64](EntryWords*(rows+2)))
	}
	putHostWords(h)
	return h
}

func ones[T uint32 | uint64](n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = ^T(0)
	}
	return s
}
