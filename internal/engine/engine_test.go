package engine_test

import (
	"strings"
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/platform"
)

// TestNewThreadRejectsInvalidPlatform: a platform the model cannot run on
// stops at NewThread with platform.Validate's named error, on both
// engines, instead of an index or divide fault on the first access.
func TestNewThreadRejectsInvalidPlatform(t *testing.T) {
	for _, ref := range []bool{false, true} {
		plat := platform.XeonGold6326().Scaled(256)
		plat.StoreBufSize = 0
		want := plat.Validate()
		if want == nil {
			t.Fatal("platform without a store buffer validates")
		}
		func() {
			defer func() {
				if got, _ := recover().(error); got == nil || got.Error() != want.Error() {
					t.Errorf("ref=%v: NewThread panicked with %v, want %v", ref, got, want)
				}
			}()
			engine.NewThread(engine.Config{Plat: plat, Mode: engine.PlainCPU, Reference: ref}, 0)
		}()
	}
}

// TestNewThreadRejectsStreamTaxes: both stream taxes are bandwidth factors
// in (0, 1]. A zero UPIStreamTaxEPC used to make the remote-EPC stream
// pace a line every 2^63 cycles.
func TestNewThreadRejectsStreamTaxes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *engine.SGXCosts)
		want   string
	}{
		{"EPC stream tax zero", func(c *engine.SGXCosts) { c.EPCStreamTax = 0 }, "EPCStreamTax"},
		{"EPC stream tax above one", func(c *engine.SGXCosts) { c.EPCStreamTax = 1.5 }, "EPCStreamTax"},
		{"UPI stream tax zero", func(c *engine.SGXCosts) { c.UPIStreamTaxEPC = 0 }, "UPIStreamTaxEPC"},
	} {
		for _, ref := range []bool{false, true} {
			costs := engine.DefaultSGXCosts()
			tc.mutate(&costs)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
						t.Errorf("%s, ref=%v: NewThread panicked with %q, want one naming %s", tc.name, ref, msg, tc.want)
					}
				}()
				engine.NewThread(engine.Config{Plat: platform.XeonGold6326().Scaled(256), Mode: engine.Enclave, Costs: costs, Reference: ref}, 0)
			}()
		}
	}
}
