package platform

import (
	"math/bits"
	"strings"
	"testing"
)

// TestValidate breaks one field of the paper's platform at a time and
// checks that Validate names the violated constraint. Every row from
// "page size below 4 KiB" on is a platform the engine used to accept and
// then panic or silently mis-simulate on.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *Platform)
		want   string // substring of the error
	}{
		{"no sockets", func(p *Platform) { p.Sockets = 0 }, "socket"},
		{"no cores", func(p *Platform) { p.CoresPerSocket = 0 }, "core per socket"},
		{"zero frequency", func(p *Platform) { p.FreqHz = 0 }, "frequency"},
		{"page size zero", func(p *Platform) { p.PageBytes = 0 }, "page size"},
		{"page size not a power of two", func(p *Platform) { p.PageBytes = 12288 }, "page size"},
		{"no MLP slots", func(p *Platform) { p.MLPSlots = 0 }, "MLPSlots"},
		{"core stream bandwidth zero", func(p *Platform) { p.CoreStreamBW = 0 }, "bandwidths"},
		{"socket bandwidth negative", func(p *Platform) { p.SocketDRAMBW = -1 }, "bandwidths"},
		{"UPI bandwidth zero", func(p *Platform) { p.UPIBW = 0 }, "bandwidths"},
		{"cache smaller than one set", func(p *Platform) { p.L2.SizeBytes = 64 }, "L2 cache must hold a power-of-two number of whole sets"},
		{"line sizes disagree", func(p *Platform) { p.L2.LineBytes = 128 }, "line size"},

		{"page size below 4 KiB", func(p *Platform) { p.PageBytes = 2048 }, "page size"},
		{"no store buffer", func(p *Platform) { p.StoreBufSize = 0 }, "StoreBufSize"},
		{"remote stream bandwidth zero", func(p *Platform) { p.RemoteStreamBW = 0 }, "bandwidths"},
		{"32-byte lines everywhere", func(p *Platform) { p.L1D.LineBytes, p.L2.LineBytes, p.L3.LineBytes = 32, 32, 32 }, "line size"},
		{"cache without ways", func(p *Platform) { p.L1D.Ways = 0 }, "cache ways"},
		{"cache with negative ways", func(p *Platform) { p.L3.Ways = -4 }, "cache ways"},
		{"cache ways overflow the MRU index", func(p *Platform) { p.L3.Ways = 1 << 16 }, "cache ways"},
		{"TLB without ways", func(p *Platform) { p.DTLB.Ways = 0 }, "TLB ways"},
		{"TLB ways overflow the MRU index", func(p *Platform) { p.STLB.Ways = 1 << 16 }, "TLB ways"},
		{"cache ways overflow a filter counter", func(p *Platform) { p.L2.Ways = 256 }, "cache ways"},
		{"TLB ways overflow a filter counter", func(p *Platform) { p.DTLB.Ways = 256 }, "TLB ways"},
		{"DTLB without entries", func(p *Platform) { p.DTLB.Entries = 0 }, "DTLB must hold a power-of-two number of whole sets"},
		{"DTLB smaller than one set", func(p *Platform) { p.DTLB.Entries = 3 }, "DTLB must hold a power-of-two number of whole sets"},
		{"DTLB with negative entries", func(p *Platform) { p.DTLB.Entries = -8 }, "DTLB must hold a power-of-two number of whole sets"},

		// Every row below is a geometry the cache models used to simulate
		// with more capacity than it states.
		{"L1D with 48 sets", func(p *Platform) { p.L1D.SizeBytes = 36 << 10 }, "L1D cache must hold a power-of-two number of whole sets of 12 ways, got 576 lines (48 sets)"},
		{"L1D of 53.3 sets", func(p *Platform) { p.L1D.SizeBytes = 40 << 10 }, "L1D cache must hold a power-of-two number of whole sets"},
		{"L2 with 768 sets", func(p *Platform) { p.L2.SizeBytes = 960 << 10 }, "L2 cache must hold a power-of-two number of whole sets"},
		{"L2 one line past its sets", func(p *Platform) { p.L2.SizeBytes += 64 }, "L2 cache must hold a power-of-two number of whole sets"},
		{"L3 with 24576 sets", func(p *Platform) { p.L3.SizeBytes = 18 << 20 }, "L3 cache must hold a power-of-two number of whole sets"},
		{"DTLB with 12 sets", func(p *Platform) { p.DTLB.Entries = 48 }, "DTLB must hold a power-of-two number of whole sets"},
		{"STLB with 96 sets", func(p *Platform) { p.STLB.Entries = 1152 }, "STLB must hold a power-of-two number of whole sets"},
	} {
		p := XeonGold6326()
		tc.mutate(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the platform", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestScaledPlatformsValidate covers every scale factor from 1 to 2^16
// (the repository builds platforms at 1 to 512, the benchmark's smoke
// sizes at 4096 and 16384), where each TLB's cache geometry has
// Entries/Ways sets of Ways one-page lines, and the widest associativity
// the packed cache models' one-byte filter counters can hold.
func TestScaledPlatformsValidate(t *testing.T) {
	for f := int64(1); f <= 1<<16; f *= 2 {
		p := XeonGold6326().Scaled(f)
		if err := p.Validate(); err != nil {
			t.Errorf("Scaled(%d): %v", f, err)
		}
		for _, g := range []TLBGeom{p.DTLB, p.STLB} {
			if c := g.Cache(); c.Sets() != int64(g.Entries/g.Ways) || c.Ways != g.Ways || c.LineBytes != 4096 {
				t.Errorf("Scaled(%d): %+v.Cache() = %+v, %d sets", f, g, c, c.Sets())
			}
		}
	}
	p := XeonGold6326()
	p.L3 = CacheGeom{SizeBytes: 2048 * 255 * 64, Ways: 255, LineBytes: 64}
	p.STLB = TLBGeom{Entries: 8 * 255, Ways: 255}
	if err := p.Validate(); err != nil {
		t.Errorf("255 ways: %v", err)
	}
}

// TestScaledSets pins the set count of every level of Scaled(f): the
// full-size count divided by f, down to each level's floor.
func TestScaledSets(t *testing.T) {
	for f := int64(1); f <= 1<<16; f *= 2 {
		p := XeonGold6326().Scaled(f)
		got := [5]int64{p.L1D.Sets(), p.L2.Sets(), p.L3.Sets(), p.DTLB.Cache().Sets(), p.STLB.Cache().Sets()}
		if want := [5]int64{max(64/f, 16), max(1024/f, 16), max(32768/f, 64), max(16/f, 4), max(128/f, 2)}; got != want {
			t.Errorf("Scaled(%d): sets L1D/L2/L3/DTLB/STLB %v, want %v", f, got, want)
		}
	}
}

// TestShare: an L3 share is the split engine.NewThread made before it
// moved here — a k-th of the bytes, at least one set, rounded up to a
// power of two of sets by the cache models — at every scale, and it
// validates.
func TestShare(t *testing.T) {
	for f := int64(1); f <= 1<<16; f *= 2 {
		l3 := XeonGold6326().Scaled(f).L3
		for k := 1; k <= 16; k++ {
			old := l3
			old.SizeBytes = max(old.SizeBytes/int64(k), int64(old.Ways)*old.LineBytes)
			want := int64(1) << bits.Len64(uint64(old.Sets()-1))
			if g := l3.Share(k); g.Sets() != want || g.Ways != l3.Ways || g.Check() != nil {
				t.Errorf("Scaled(%d).L3.Share(%d) = %+v (%d sets), want %d sets", f, k, g, g.Sets(), want)
			}
		}
		if l3.Share(0) != l3 {
			t.Errorf("Scaled(%d): a share of 0 threads is not the whole L3", f)
		}
	}
}
