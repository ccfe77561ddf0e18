package agg

import "sync"

// hostWords is the recyclable host memory of one group-by call: each
// worker's bucket heads and entry arena, and SpillRunOn's second staging
// buffer (agg.sp1). Only the D slices behind the simulated buffers are
// recycled; every call still makes its own Space.Alloc ranges, in the
// same order and of the same sizes, so no simulated address depends on
// what the pool held. The words come back dirty, which no reader sees:
// aggregatePartition clears the bucket heads it uses, insert writes all
// of an entry's words before anything reads them, emit reads only the
// entries a partition inserted, and the radix passes write every staging
// word they later read.
type hostWords struct {
	heads [][]uint32 // per worker
	ents  [][]uint64 // per worker
	stage []uint64
}

// hostPool holds the host words of finished group-by calls, as the
// cache package's pools hold finished threads' caches. It is
// process-wide, and the garbage collector may empty it.
var hostPool sync.Pool

// getHostWords returns a finished call's host words, or an empty set when
// the pool is empty.
func getHostWords() *hostWords {
	if h, ok := hostPool.Get().(*hostWords); ok {
		return h
	}
	return new(hostWords)
}

// putHostWords hands h back for a later call; the caller must not use
// its slices afterwards.
func putHostWords(h *hostWords) { hostPool.Put(h) }

// fit gives h a slot for each of T workers' words.
func (h *hostWords) fit(T int) {
	for len(h.heads) < T {
		h.heads = append(h.heads, nil)
		h.ents = append(h.ents, nil)
	}
}
