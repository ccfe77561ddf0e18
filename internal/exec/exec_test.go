package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"sgxbench/internal/cache"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/obs"
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
	l3 := p.L3.Share(2) // each of the two threads' share of the socket L3
	var keep []any
	models := allocated(func() {
		for range 2 {
			keep = append(keep, cache.New(p.L1D), cache.New(p.L2), cache.New(l3), cache.New(p.DTLB.Cache()), cache.New(p.STLB.Cache()))
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
	cfg := engine.Config{Plat: platform.XeonGold6326().Scaled(256), Mode: engine.PlainCPU, Costs: engine.DefaultSGXCosts()}
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

// lineLoads returns a phase body in which thread id loads lines cache
// lines of its own slice of buf, so that phases of different lengths
// differ in cycles and counters.
func lineLoads(buf *mem.Buffer, lines int) func(*engine.Thread, int) {
	return func(th *engine.Thread, id int) {
		for j := range lines {
			th.Load(buf, int64(id*lines+j)*64, 8, 0)
		}
	}
}

// stageGroup returns a 2-thread group and a buffer for lineLoads.
func stageGroup() (*Group, *mem.Buffer) {
	cfg := engine.Config{Plat: platform.XeonGold6326().Scaled(256), Mode: engine.PlainCPU, Costs: engine.DefaultSGXCosts()}
	buf := mem.NewSpace(1).Alloc("b", 1<<16, mem.Region{})
	return NewGroup(cfg, 2, nil), &buf
}

// TestSince runs before phases, takes a Mark, runs after more, and
// checks stage extraction: Since returns exactly the phases after the
// mark, their summed stats with Cycles set to the clock advance, and
// that advance; Since(Mark{}) sums every phase up to Clock; ResetPhases
// empties the log and rebases the clock.
func TestSince(t *testing.T) {
	for _, tc := range []struct{ before, after int }{
		{0, 0}, {0, 2}, {2, 0}, {1, 3}, {3, 1},
	} {
		name := fmt.Sprintf("before=%d,after=%d", tc.before, tc.after)
		g, buf := stageGroup()
		for i := range tc.before {
			g.Phase(fmt.Sprintf("b%d", i), lineLoads(buf, i+1))
		}
		start := g.Clock()
		m := g.Mark()
		for i := range tc.after {
			g.Phase(fmt.Sprintf("a%d", i), lineLoads(buf, 2*i+1))
		}
		ps, st, d := g.Since(m)

		if len(ps) != tc.after {
			t.Fatalf("%s: Since returned %d phases, want %d", name, len(ps), tc.after)
		}
		var want engine.Stats
		var wall uint64
		for i, p := range ps {
			if p.Name != fmt.Sprintf("a%d", i) || p != g.Phases()[tc.before+i] {
				t.Errorf("%s: phase %d is %q, want a%d from the log", name, i, p.Name, i)
			}
			want.Add(p.Agg)
			wall += p.WallCycles
		}
		want.Cycles = wall
		if d != g.Clock()-start || d != wall {
			t.Errorf("%s: advance %d, clock moved %d, phases' wall %d", name, d, g.Clock()-start, wall)
		}
		if st != want {
			t.Errorf("%s: Since stats\n got %+v\nwant %+v", name, st, want)
		}
		if tc.after > 0 && st.Loads == 0 {
			t.Errorf("%s: stage stats count no loads", name)
		}

		var total engine.Stats
		for _, p := range g.Phases() {
			total.Add(p.Agg)
		}
		total.Cycles = g.Clock()
		if _, got, _ := g.Since(Mark{}); got != total {
			t.Errorf("%s: Since(Mark{})\n got %+v\nwant %+v", name, got, total)
		}

		g.ResetPhases()
		if len(g.Phases()) != 0 || g.Clock() != 0 {
			t.Errorf("%s: after ResetPhases %d phases, clock %d", name, len(g.Phases()), g.Clock())
		}
		if ps, st, d := g.Since(g.Mark()); len(ps) != 0 || st != (engine.Stats{}) || d != 0 {
			t.Errorf("%s: empty stage after reset: %d phases, stats %+v, advance %d", name, len(ps), st, d)
		}
		g.Release()
	}
}

// TestScope checks that a scope attributes its stage's clock advance to
// the attached profiler, with the stage's phases as leaves under it, and
// that without a profiler it is a no-op. Either way the group's clock
// and phases are the same: the profiler only observes.
func TestScope(t *testing.T) {
	clocks := map[bool]uint64{}
	for _, profiled := range []bool{false, true} {
		g, buf := stageGroup()
		g.Phase("setup", lineLoads(buf, 2))
		var prof *obs.Profiler
		if profiled {
			prof = obs.NewProfiler("run")
			g.AttachProfiler(prof)
		}
		start := g.Clock()
		closeStage := g.Scope("stage")
		p1 := g.Phase("p1", lineLoads(buf, 3))
		p2 := g.Phase("p2", lineLoads(buf, 1))
		closeStage()
		advance := g.Clock() - start
		clocks[profiled] = g.Clock()
		if advance != p1.WallCycles+p2.WallCycles || advance == 0 {
			t.Errorf("profiled=%v: stage advanced %d, phases' wall %d", profiled, advance, p1.WallCycles+p2.WallCycles)
		}
		g.Release()
		if !profiled {
			continue
		}
		root := prof.Root()
		if len(root.Children) != 1 || root.Cycles != advance {
			t.Fatalf("profile root %+v, want one scope of %d cycles", root, advance)
		}
		stage := root.Children[0]
		if stage.Name != "stage" || stage.Cycles != advance || stage.Count != 1 || len(stage.Children) != 2 {
			t.Fatalf("scope %+v, want stage with %d cycles and two leaves", stage, advance)
		}
		for i, p := range []PhaseStats{p1, p2} {
			if leaf := stage.Children[i]; leaf.Name != p.Name || leaf.Cycles != p.WallCycles {
				t.Errorf("leaf %d = %s/%d, want %s/%d", i, leaf.Name, leaf.Cycles, p.Name, p.WallCycles)
			}
		}
	}
	if clocks[false] != clocks[true] {
		t.Errorf("clock with a profiler %d, without %d", clocks[true], clocks[false])
	}
}

// TestPhaseRunsInOrderOnCaller checks that a phase runs its threads'
// bodies one at a time in id order on the calling goroutine: each body
// sees the previous one finished, and a body's panic reaches Phase's
// caller, where it can be recovered, without running later threads.
func TestPhaseRunsInOrderOnCaller(t *testing.T) {
	cfg := engine.Config{Plat: platform.XeonGold6326().Scaled(256), Mode: engine.PlainCPU, Costs: engine.DefaultSGXCosts()}
	g := NewGroup(cfg, 4, nil)
	defer g.Release()
	var order []int
	g.Phase("order", func(_ *engine.Thread, id int) { order = append(order, id) })
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Errorf("bodies ran in order %v, want [0 1 2 3]", order)
	}

	order = nil
	mustPanic(t, "Phase with a panicking body", "thread 2 failed", func() {
		g.Phase("boom", func(_ *engine.Thread, id int) {
			order = append(order, id)
			if id == 2 {
				panic(fmt.Sprintf("thread %d failed", id))
			}
		})
	})
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Errorf("around the panic, bodies ran in order %v, want [0 1 2]", order)
	}
}
