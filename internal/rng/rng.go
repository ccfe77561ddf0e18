// Package rng provides the deterministic pseudo-random generators used by
// workload generation and the random-access micro-benchmarks.
//
// The paper's random-access micro-benchmark derives positions from a linear
// congruential generator (Section 4.1); LCG reproduces that. Splittable
// xorshift generators are used for data generation so that every table is
// reproducible from a single seed regardless of thread count.
package rng

import "math/bits"

// LCG is the linear congruential generator used to produce random access
// positions (Numerical Recipes constants, full 64-bit period).
type LCG struct {
	state uint64
}

// NewLCG returns an LCG seeded with seed.
func NewLCG(seed uint64) *LCG { return &LCG{state: seed*6364136223846793005 + 1442695040888963407} }

// Next returns the next 64-bit value.
func (l *LCG) Next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state
}

// Uint64n returns a value in [0, n). n must be > 0.
func (l *LCG) Uint64n(n uint64) uint64 {
	// Multiply-shift reduction avoids the modulo bias being relevant for
	// benchmark position streams and is what high-performance benchmark
	// code uses in practice.
	hi, _ := mul64(l.Next(), n)
	return hi
}

// XorShift is a 64-bit xorshift* generator used for data generation.
type XorShift struct {
	state uint64
}

// NewXorShift returns a generator seeded with seed (zero is remapped).
func NewXorShift(seed uint64) *XorShift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &XorShift{state: seed}
}

// Next returns the next 64-bit value.
func (x *XorShift) Next() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545f4914f6cdd1d
}

// Uint32 returns the next 32-bit value.
func (x *XorShift) Uint32() uint32 { return uint32(x.Next() >> 32) }

// Uint64n returns a value in [0, n). n must be > 0.
func (x *XorShift) Uint64n(n uint64) uint64 {
	hi, _ := mul64(x.Next(), n)
	return hi
}

// Split returns a new generator whose stream is independent of x for all
// practical purposes; used to give each worker a private stream derived
// from one experiment seed.
func (x *XorShift) Split(i uint64) *XorShift {
	return NewXorShift(mix(x.state ^ (i+1)*0xbf58476d1ce4e5b9))
}

// Mix hashes a seed into a well-distributed state (splitmix64 finalizer).
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix is the exported splitmix64 finalizer for deriving sub-seeds.
func Mix(z uint64) uint64 { return mix(z) }

// mul64 returns the 128-bit product of a and b as (hi, lo): the
// compiler intrinsic, one widening multiply on amd64 and arm64.
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// Permutation fills out with a pseudo-random permutation of [0, len(out))
// using the Fisher-Yates shuffle driven by x.
func (x *XorShift) Permutation(out []uint32) {
	for i := range out {
		out[i] = uint32(i)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(x.Uint64n(uint64(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
}
