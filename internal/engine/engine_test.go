package engine_test

import (
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
