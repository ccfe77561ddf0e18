package platform

import (
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
		{"EPC stream tax zero", func(p *Platform) { p.EPCStreamTax = 0 }, "EPCStreamTax"},
		{"EPC stream tax above one", func(p *Platform) { p.EPCStreamTax = 1.5 }, "EPCStreamTax"},
		{"cache smaller than one set", func(p *Platform) { p.L2.SizeBytes = 64 }, "smaller than one set"},
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

// TestScaledPlatformsValidate covers every scale factor the repository
// builds a platform with (1 to 512), and the widest associativity the
// packed cache models' one-byte filter counters can hold.
func TestScaledPlatformsValidate(t *testing.T) {
	for f := int64(1); f <= 512; f *= 2 {
		if err := XeonGold6326().Scaled(f).Validate(); err != nil {
			t.Errorf("Scaled(%d): %v", f, err)
		}
	}
	p := XeonGold6326()
	p.L3.Ways, p.STLB.Ways = 255, 255
	if err := p.Validate(); err != nil {
		t.Errorf("255 ways: %v", err)
	}
}
