package exec

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"sgxbench/internal/cache"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
)

// allocated returns the bytes f allocates on the host.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGroupReleaseRecycles creates and releases a 2-thread group 100
// times on the full-size platform, whose cache models dominate a group's
// bytes. Released models are reused by the next group, so the 100 groups
// together allocate less than 1.5x the models of one.
func TestGroupReleaseRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	// No collection may empty the pools mid-test, and one P: a pool's
	// per-P private slot is invisible from another P.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := platform.XeonGold6326()
	l3 := p.L3 // each of the two threads' share of the socket L3
	l3.SizeBytes /= 2
	var keep []any
	models := allocated(func() {
		for range 2 {
			keep = append(keep, cache.New(p.L1D), cache.New(p.L2), cache.New(l3), cache.NewTLB(p.DTLB), cache.NewTLB(p.STLB))
		}
	})
	cfg := engine.Config{Plat: p, Mode: engine.PlainCPU, Costs: engine.DefaultSGXCosts()}
	got := allocated(func() {
		for range 100 {
			NewGroup(cfg, 2, nil).Release()
		}
	})
	t.Logf("100 groups: %d B; one group's models: %d B (%d kept)", got, models, len(keep))
	if float64(got) >= 1.5*float64(models) {
		t.Errorf("100 released groups allocated %d B, not under 1.5x one group's models (%d B): models are not recycled", got, models)
	}
}

// mustPanic fails the test unless f panics with a message containing want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
		} else if msg, _ := r.(string); want != "" && !strings.Contains(msg, want) {
			t.Errorf("%s: panic %v, want one mentioning %q", what, r, want)
		}
	}()
	f()
}

// TestReleasedThreadPanics checks that nothing runs on released models:
// a Phase on a released group panics, and so does an access through a
// thread kept from it, even one the line memo would have served.
// Releasing twice is harmless, and a reference thread, whose models are
// never pooled, keeps working after Release.
func TestReleasedThreadPanics(t *testing.T) {
	cfg := engine.Config{Plat: platform.XeonGold6326().Scaled(256), Mode: engine.PlainCPU}
	buf := mem.NewSpace(1).Alloc("b", 4096, mem.Region{})
	load := func(th *engine.Thread, _ int) { th.Load(&buf, 0, 8, 0) }
	g := NewGroup(cfg, 2, nil)
	g.Phase("warm", load)
	kept := g.Threads[0]
	g.Release()
	g.Release()
	mustPanic(t, "Phase on a released group", "released group", func() { g.Phase("after", load) })
	mustPanic(t, "Load on a released thread", "", func() { load(kept, 0) })
	kept.Release()

	cfg.Reference = true
	ref := engine.NewThread(cfg, 0)
	load(ref, 0)
	ref.Release()
	load(ref, 0)
	if s := ref.Stats(); s.Loads != 2 || s.L1Hits != 1 {
		t.Errorf("reference thread after Release: %d loads, %d L1 hits; want 2 and 1", s.Loads, s.L1Hits)
	}
}

// TestChunk checks that Chunk splits n items into contiguous ranges that
// differ in size by at most one, the larger ones first.
func TestChunk(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
		want       [][2]int
	}{
		{0, 2, [][2]int{{0, 0}, {0, 0}}},
		{8, 1, [][2]int{{0, 8}}},
		{9, 3, [][2]int{{0, 3}, {3, 6}, {6, 9}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{11, 4, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 11}}},
		{2, 4, [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 2}}},
	} {
		for id, w := range tc.want {
			if lo, hi := Chunk(tc.n, tc.workers, id); lo != w[0] || hi != w[1] {
				t.Errorf("Chunk(%d, %d, %d) = [%d, %d), want [%d, %d)", tc.n, tc.workers, id, lo, hi, w[0], w[1])
			}
		}
	}
}
