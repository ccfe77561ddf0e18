package rng

import (
	"math/big"
	"testing"
)

// TestMul64MatchesBig checks the 128-bit product against math/big on
// every pair of word-boundary values and on a million seeded pairs.
func TestMul64MatchesBig(t *testing.T) {
	mask := new(big.Int).SetUint64(1<<64 - 1)
	var x, y, p, w big.Int
	check := func(a, b uint64) {
		t.Helper()
		hi, lo := mul64(a, b)
		p.Mul(x.SetUint64(a), y.SetUint64(b))
		wantLo := w.And(&p, mask).Uint64()
		wantHi := w.Rsh(&p, 64).Uint64()
		if hi != wantHi || lo != wantLo {
			t.Fatalf("mul64(%#x, %#x) = (%#x, %#x), want (%#x, %#x)", a, b, hi, lo, wantHi, wantLo)
		}
	}
	edges := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := NewXorShift(Mix(2024))
	for i := 0; i < 1_000_000; i++ {
		check(r.Next(), r.Next())
	}
}

// TestGeneratorStreamsPinned pins the first outputs of every generator:
// each workload table is a function of these streams, so a change to any
// of them would silently move every generated input.
func TestGeneratorStreamsPinned(t *testing.T) {
	lcg, xs := NewLCG(1), NewXorShift(1)
	wantLCG := [8]uint64{
		0x826886b3864a1b1b, 0xa5fae1992097aa0e, 0x620355cd119357c5, 0xcba276b4b881a9f0,
		0x802181e6e230707f, 0x8dceb534efa548a2, 0x10bf51ed74c7a3c9, 0xd6f84a5288bd02a4,
	}
	wantXS := [8]uint64{
		0x47e4ce4b896cdd1d, 0xabcfa6a8e079651d, 0xb9d10d8feb731f57, 0x4db418a0bb1b019d,
		0x0e6199b04d5aa600, 0xc8674bcb42e3aad9, 0xd052b2d8d46e7181, 0xac718cf8ce31398d,
	}
	wantMix := [8]uint64{ // Mix(0) … Mix(7)
		0xe220a8397b1dcdaf, 0x910a2dec89025cc1, 0x975835de1c9756ce, 0x1d0b14e4db018fed,
		0x6e73e372e2338aca, 0x63033b0ca389c35a, 0xbd64a5d9adefe000, 0x63cbe1e459320dd7,
	}
	for i := range 8 {
		if got := lcg.Next(); got != wantLCG[i] {
			t.Errorf("LCG(1) output %d = %#x, want %#x", i, got, wantLCG[i])
		}
		if got := xs.Next(); got != wantXS[i] {
			t.Errorf("XorShift(1) output %d = %#x, want %#x", i, got, wantXS[i])
		}
		if got := Mix(uint64(i)); got != wantMix[i] {
			t.Errorf("Mix(%d) = %#x, want %#x", i, got, wantMix[i])
		}
	}
	if got := NewXorShift(1).Uint32(); got != uint32(wantXS[0]>>32) {
		t.Errorf("XorShift(1).Uint32() = %#x, want the top half of output 0", got)
	}
	// A zero state would stick at zero; seed 0 is remapped instead.
	if a, b := NewXorShift(0).Next(), NewXorShift(0x9e3779b97f4a7c15).Next(); a != b || a == 0 {
		t.Errorf("XorShift(0) starts at %#x, want the remapped seed's %#x", a, b)
	}
}

// TestUint64nInRange draws from both generators at bounds that exercise
// the smallest domain, an odd one, one just past 32 bits, and the
// largest.
func TestUint64nInRange(t *testing.T) {
	for _, n := range []uint64{1, 3, 1<<32 + 1, 1<<64 - 1} {
		lcg, xs := NewLCG(n), NewXorShift(n)
		for i := 0; i < 10_000; i++ {
			if v := lcg.Uint64n(n); v >= n {
				t.Fatalf("LCG.Uint64n(%d) = %d", n, v)
			}
			if v := xs.Uint64n(n); v >= n {
				t.Fatalf("XorShift.Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000} {
		out := make([]uint32, n)
		NewXorShift(9).Permutation(out)
		seen := make([]bool, n)
		for i, v := range out {
			if int(v) >= n || seen[v] {
				t.Fatalf("n=%d: out[%d] = %d is out of range or repeated", n, i, v)
			}
			seen[v] = true
		}
	}
}

// TestSplitStreamsDiffer: sibling splits and their parent share no value
// among their first outputs.
func TestSplitStreamsDiffer(t *testing.T) {
	parent := NewXorShift(Mix(5))
	streams := []*XorShift{parent.Split(0), parent.Split(1), parent.Split(2), parent}
	seen := map[uint64]int{}
	for s, x := range streams {
		for i := 0; i < 64; i++ {
			v := x.Next()
			if prev, ok := seen[v]; ok {
				t.Fatalf("streams %d and %d both produce %#x", prev, s, v)
			}
			seen[v] = s
		}
	}
}
