package rng

import "math/bits"

// This file holds the deterministic hashes shared across the simulator,
// each defined once: the FNV-1a fold every check value uses, the
// multiplicative key hash of the join and group-by tables, and the
// power-of-two helpers that size those tables. (The splitmix64 finalizer
// is Mix.)

// FNVOffset64 is the FNV-1a 64-bit offset basis — the seed of the
// deterministic check values the benchmarks and golden gates compare.
const FNVOffset64 uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// FNVMix folds the 8 bytes of v into the FNV-1a accumulator h.
func FNVMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// HashKey is the 32-bit key hash of the hash joins and group-bys: a
// multiplicative (Fibonacci) hash, cheap and well-distributed in its high
// bits.
func HashKey(k uint32) uint32 { return k * 2654435761 }

// NextPow2 returns the next power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Log2 returns floor(log2(n)) for a power-of-two n.
func Log2(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n)) - 1)
}
