package agg

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sgxbench/internal/core"
)

// emptyHostPool drops whatever the pool holds: a pooled item survives
// one collection (in the victim cache) but not two.
func emptyHostPool() {
	runtime.GC()
	runtime.GC()
}

// reuseCase is one group-by of the dirty-reuse test.
type reuseCase struct {
	name      string
	spill     bool
	setting   core.Setting
	pages     int64
	n, groups int
	hint      int // Options.Groups
	threads   int
	sel       Sel
}

func (c reuseCase) run() ([]Input, *Result) {
	env := spillTestEnv(c.setting, false, c.pages)
	ins := []Input{{Tup: genTuples(env, c.n, c.groups, false, 41), N: c.n}}
	opt := Options{Threads: c.threads, Sel: c.sel, Groups: c.hint}
	if c.spill {
		return ins, SpillRun(env, ins, opt)
	}
	return ins, Run(env, ins, opt)
}

// TestHostWordsDirtyReuse runs group-bys whose recycled host words hold
// an earlier call's data: a wide one (many groups in two large
// partitions, so the entry arenas grow), a narrow one on the other
// tuple half over more workers, a spill group-by under an EPC limit
// whose drain writes the second staging buffer, and one of two
// partitioning passes. Each must match the oracle and, in Check, cycles
// and Stats, its own run on an empty pool; so must the two-pass case on
// words the pool hands out set to all ones.
func TestHostWordsDirtyReuse(t *testing.T) {
	cases := []reuseCase{
		{"wide", false, core.PlainCPU, 0, 1 << 16, 20000, 64, 2, ByKey},
		{"narrow", false, core.SGXDiE, 0, 9000, 50, 50, 3, ByPayload},
		{"spill/drain", true, core.SGXDiE, aggEPCHalf(15000), 15000, 700, 700, 2, ByKey},
		{"spill/two-pass", true, core.SGXDiE, 4, 40000, 8000, 8000, 2, ByKey},
	}
	check := func(c reuseCase, label string, base *Result) *Result {
		t.Helper()
		ins, res := c.run()
		verifyAgainstOracle(t, c.name+"/"+label, res, Reference(ins, c.sel))
		if base != nil && (res.Check != base.Check || res.Groups != base.Groups || res.WallCycles != base.WallCycles || res.Stats != base.Stats) {
			t.Errorf("%s/%s: check %#x groups %d wall %d stats %+v; on an empty pool %#x %d %d %+v", c.name, label,
				res.Check, res.Groups, res.WallCycles, res.Stats, base.Check, base.Groups, base.WallCycles, base.Stats)
		}
		return res
	}
	base := make([]*Result, len(cases))
	for i, c := range cases {
		emptyHostPool()
		base[i] = check(c, "empty", nil)
	}
	for i, c := range cases {
		check(c, "reused", base[i])
	}

	// One P and no collection, so the next call takes the filled set.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	emptyHostPool()
	c := cases[3]
	h := fillHostPool(c.threads, c.n)
	check(c, "ones", base[3])
	// Under the race detector Put drops items on purpose.
	if got := getHostWords(); !raceEnabled && got != h {
		t.Errorf("%s: the run did not take the all-ones words", c.name)
	}
}

// TestGroupByRecyclesHostWords runs 100 spill group-bys on one group
// after a first one: each hands its worker tables and staging words back
// for the next, so together they allocate less than 1.5x what the first
// call's tables and staging hold.
func TestGroupByRecyclesHostWords(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	// No collection may empty the pool mid-test, and one P: a pool's
	// per-P private slot is invisible from another P.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, groups = 1 << 17, 64
	env := spillTestEnv(core.SGXDiE, false, aggEPCHalf(n))
	ins := []Input{{Tup: genTuples(env, n, groups, false, 5), N: n}}
	g := env.NewGroup(2, nil)
	defer g.Release()
	opt := Options{
		Sel: ByKey, Groups: groups,
		Out:   env.Space.AllocU64("agg.out", EntryWords*n, env.DataRegion()),
		Parts: env.Space.AllocU64("agg.parts", n, env.DataRegion()),
	}
	emptyHostPool()
	SpillRunOn(env, g, ins, opt)
	h := getHostWords()
	if h.stage == nil {
		t.Fatal("the first call staged nothing: the case needs an EPC limit")
	}
	tables := 8 * cap(h.stage)
	for i := range h.heads {
		tables += 4*cap(h.heads[i]) + 8*cap(h.ents[i])
	}
	putHostWords(h)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100 {
		SpillRunOn(env, g, ins, opt)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("100 spill group-bys: %d B; one call's tables and staging: %d B", got, tables)
	if float64(got) >= 1.5*float64(tables) {
		t.Errorf("100 spill group-bys allocated %d B, not under 1.5x one call's tables and staging (%d B): host words are not recycled", got, tables)
	}
}
