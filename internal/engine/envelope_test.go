package engine_test

import (
	"fmt"
	"math"
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// envelopeThread builds a Plain CPU thread on plat and an untrusted buffer
// of n bytes.
func envelopeThread(plat *platform.Platform, ref bool, n int64) (*engine.Thread, *mem.Buffer) {
	buf := mem.NewSpace(plat.Sockets).Raw("envelope", n, mem.Region{Node: 0, Kind: mem.Untrusted})
	th := engine.NewThread(engine.Config{Plat: plat, Mode: engine.PlainCPU, Costs: engine.DefaultSGXCosts(), Reference: ref}, 0)
	return th, &buf
}

// TestHitRatioEnvelope checks both engine paths against LRU's closed form:
// uniform random line loads over a buffer of W bytes hit in the levels up
// to one of capacity C with ratio min(1, C/W), within two points. C is the
// capacity the platform reports, so a model that simulates another
// capacity fails (a rounded-up 8 KiB L1D reads 0.750 at W = 16 KiB). A
// load that walks the page table probes the caches with its PTE fetches
// too, so each buffer fits the STLB (the test checks that nothing walks):
// L3 is measured at Scaled(512), where its 48 KiB fit 24 STLB pages twice.
func TestHitRatioEnvelope(t *testing.T) {
	const warm, n = 4, 40000 // warm-up loads per buffer line; measured loads
	for _, tc := range []struct {
		scale  int64
		levels int // L1D, then L2, then L3
	}{{32, 2}, {512, 3}} {
		plat := platform.XeonGold6326().Scaled(tc.scale)
		caps := []int64{plat.L1D.SizeBytes, plat.L2.SizeBytes, plat.L3.SizeBytes}
		for lv, c := range caps[:tc.levels] {
			for _, w := range []int64{c, 2 * c} {
				for _, ref := range []bool{false, true} {
					th, buf := envelopeThread(plat, ref, w)
					r := rng.NewXorShift(uint64(w))
					lines := uint64(w / 64)
					for range warm * lines {
						th.Load(buf, int64(r.Uint64n(lines)*64), 8, 0)
					}
					before := th.Stats()
					for range n {
						th.Load(buf, int64(r.Uint64n(lines)*64), 8, 0)
					}
					d := th.Stats().Sub(before)
					hits := []uint64{d.L1Hits, d.L1Hits + d.L2Hits, d.L1Hits + d.L2Hits + d.L3Hits}[lv]
					got, want := float64(hits)/float64(d.Loads), min(1, float64(c)/float64(w))
					name := fmt.Sprintf("Scaled(%d) ref=%v L%d (%d KiB) over %d KiB", tc.scale, ref, lv+1, c>>10, w>>10)
					if d.TLBWalks != 0 {
						t.Errorf("%s: %d page walks in the measured loads", name, d.TLBWalks)
					}
					if math.Abs(got-want) > 0.02 {
						t.Errorf("%s: hit ratio %.3f, want %.3f ± 0.02", name, got, want)
					}
				}
			}
		}
	}
}

// TestTLBReachEnvelope sweeps P pages cyclically, one load per page, on
// both engine paths. After the first pass, a sweep within the DTLB's or
// the STLB's reach walks no page, and a sweep one page per STLB set past
// the STLB's reach walks on every load: each STLB set then cycles through
// one page more than it holds.
func TestTLBReachEnvelope(t *testing.T) {
	for _, scale := range []int64{1, 128} {
		plat := platform.XeonGold6326().Scaled(scale)
		dtlb, stlb := plat.DTLB.Entries, plat.STLB.Entries
		stlbSets := stlb / plat.STLB.Ways
		for _, tc := range []struct {
			pages int
			walks bool
		}{{dtlb, false}, {dtlb + 1, false}, {stlb, false}, {stlb + stlbSets, true}} {
			for _, ref := range []bool{false, true} {
				th, buf := envelopeThread(plat, ref, int64(tc.pages)*4096)
				for p := range tc.pages {
					th.Load(buf, int64(p)*4096, 8, 0)
				}
				before := th.Stats()
				for range 2 {
					for p := range tc.pages {
						th.Load(buf, int64(p)*4096, 8, 0)
					}
				}
				d := th.Stats().Sub(before)
				want := uint64(0)
				if tc.walks {
					want = d.Loads
				}
				if d.TLBWalks != want {
					t.Errorf("Scaled(%d) ref=%v: %d-page sweep (DTLB %d, STLB %d entries) walked %d times in %d loads, want %d",
						scale, ref, tc.pages, dtlb, stlb, d.TLBWalks, d.Loads, want)
				}
			}
		}
	}
}
