package plan

import (
	stdsort "sort"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	sortop "sgxbench/internal/sort"
)

const (
	testDim  = 512
	testFact = 1 << 14
	testSeed = 4242
)

func testEnv(setting core.Setting, ref bool) *core.Env {
	return core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(32),
		Setting:   setting,
		Reference: ref,
	})
}

// oracleSuite computes a suite query's expected shape straight from the
// generated (host-visible) dataset: surviving row count, distinct final
// group keys for aggregation finals, and the ordered output tuples for
// ORDER BY finals.
func oracleSuite(ds *Dataset, q Query) (rows int, groups map[uint32]bool, ord []uint64) {
	dimMaps := make([]map[uint32]uint32, q.Dims)
	for l := 0; l < q.Dims; l++ {
		d := ds.dim(l)
		m := make(map[uint32]uint32, d.N())
		for i := 0; i < d.N(); i++ {
			m[d.Key(i)] = d.Payload(i)
		}
		dimMaps[l] = m
	}
	groups = make(map[uint32]bool)
	for i := 0; i < ds.Fact.N(); i++ {
		if ds.Filter.D[i] < q.Pred.Lo || ds.Filter.D[i] > q.Pred.Hi {
			continue
		}
		rows++
		if q.Dims == 0 {
			groups[ds.Fact.Key(i)] = true
			ord = append(ord, ds.Fact.Tup.D[i])
			continue
		}
		// Walk the join chain: each level maps the current key to the
		// dimension payload, re-keyed 1-based by the Project node.
		key := ds.Fact.Key(i)
		var p uint32
		for l := 0; l < q.Dims; l++ {
			p = dimMaps[l][key]
			key = p + 1
		}
		groups[p] = true
		ord = append(ord, mem.MakeTuple(p+1, ds.Fact.Payload(i)))
	}
	stdsort.Slice(ord, func(i, j int) bool { return sortop.TupLess(ord[i], ord[j]) })
	return rows, groups, ord
}

// TestSuiteCorrectness validates planner-chosen executions of suite
// queries against pure-Go oracles computed from the dataset itself.
func TestSuiteCorrectness(t *testing.T) {
	for _, name := range []string{
		"s02.j0.sel250.u.agg", "s04.j0.sel250.z.agg", "s05.j0.sel102.u.top",
		"s09.j1.sel250.u.agg", "s14.j1.sel250.u.top", "s15.j1.sel500.u.ord",
		"s16.j2.sel250.u.agg", "s19.j3.sel250.u.agg", "s20.j3.sel902.z.agg",
	} {
		q := mustPipeline(t, name)
		env := testEnv(core.PlainCPU, false)
		ds := GenSuiteDataset(env, q, testDim, testFact, testSeed)
		res := q.Run(env, ds, Options{Threads: 2})
		rows, groups, ord := oracleSuite(ds, q)
		if res.Rows != uint64(rows) {
			t.Errorf("%s: rows=%d oracle=%d", name, res.Rows, rows)
		}
		switch {
		case q.Order && q.Limit > 0:
			k := q.Limit
			if k > rows {
				k = rows
			}
			if res.Groups != k || len(res.TopRows) != k {
				t.Errorf("%s: emitted %d/%d rows, oracle %d", name, res.Groups, len(res.TopRows), k)
				continue
			}
			for i := 0; i < k; i++ {
				if res.TopRows[i] != ord[i] {
					t.Errorf("%s: row %d = %#x, oracle %#x", name, i, res.TopRows[i], ord[i])
					break
				}
			}
		case q.Order:
			if res.Groups != rows {
				t.Errorf("%s: sorted rows=%d oracle=%d", name, res.Groups, rows)
			}
		default:
			if res.Groups != len(groups) {
				t.Errorf("%s: groups=%d oracle=%d", name, res.Groups, len(groups))
			}
		}
	}
}

// TestTreeFastRefEquivalence enforces the fast-path invariant on plan
// trees that exercise every node type — Project, INLJoin, GraceJoin,
// MergeJoin, Sort, TopK, Limit — under all four settings: fast and
// reference engine paths must be bit-identical in check, wall cycles
// and aggregate statistics.
func TestTreeFastRefEquivalence(t *testing.T) {
	cases := []struct {
		label string
		q     Query
		alt   Alternative
	}{
		{"inl-chain-topk", Query{Name: "t.inl", Pred: sel250, Dims: 2, Order: true, Limit: 128}, Alternative{Join: JoinINL, Ord: OrdTopK}},
		{"rho-chain-sortlimit", Query{Name: "t.rho", Pred: sel250, Dims: 2, Order: true, Limit: 128}, Alternative{Join: JoinRHO, Ord: OrdSort}},
		{"grace-ord", Query{Name: "t.grace", Pred: sel500, Dims: 1, Order: true}, Alternative{Join: JoinGrace, Ord: OrdSort}},
		{"merge-spill", Query{Name: "t.merge", Pred: sel250, Dims: 1}, Alternative{Join: JoinMerge, Agg: AggSpill}},
	}
	settings := []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
	for _, c := range cases {
		for _, setting := range settings {
			label := c.label + "/" + setting.String()
			run := func(ref bool) *Result {
				env := testEnv(setting, ref)
				ds := GenSuiteDataset(env, c.q, testDim, testFact, testSeed)
				return Execute(env, ds, Options{Threads: 2, Pred: c.q.Pred, Limit: c.q.Limit},
					c.q.Name, c.q.Tree(c.alt))
			}
			ref, fast := run(true), run(false)
			if ref.Check != fast.Check {
				t.Errorf("%s: check ref=%#x fast=%#x", label, ref.Check, fast.Check)
			}
			if ref.WallCycles != fast.WallCycles {
				t.Errorf("%s: wall cycles ref=%d fast=%d", label, ref.WallCycles, fast.WallCycles)
			}
			if ref.Stats != fast.Stats {
				t.Errorf("%s: stats differ\nref:  %+v\nfast: %+v", label, ref.Stats, fast.Stats)
			}
			if ref.Groups != fast.Groups || ref.Rows != fast.Rows {
				t.Errorf("%s: shape ref=(%d, %d) fast=(%d, %d)", label, ref.Rows, ref.Groups, fast.Rows, fast.Groups)
			}
		}
	}
}

// TestSuiteRepeatDeterminism checks that planner-driven suite runs are
// bit-identical across identically prepared environments and stable
// across repetitions, including the lazily grown chain dimensions and
// swap scratch.
func TestSuiteRepeatDeterminism(t *testing.T) {
	q := mustPipeline(t, "s18.j2.sel102.u.top")
	prep := func() (*core.Env, *Dataset, Options) {
		env := testEnv(core.SGXDiE, false)
		ds := GenSuiteDataset(env, q, testDim, testFact, testSeed)
		return env, ds, Options{Threads: 2, Scratch: NewScratch(env, ds, 2, testFact)}
	}
	envA, dsA, optA := prep()
	envB, dsB, optB := prep()
	for rep := 0; rep < 3; rep++ {
		a := q.Run(envA, dsA, optA)
		b := q.Run(envB, dsB, optB)
		if a.Check != b.Check || a.WallCycles != b.WallCycles || a.Stats != b.Stats {
			t.Errorf("rep %d: envA (check=%#x wall=%d) vs envB (check=%#x wall=%d)",
				rep, a.Check, a.WallCycles, b.Check, b.WallCycles)
		}
	}
}

// TestAlternativesEnumeration pins the planner's strategy space.
func TestAlternativesEnumeration(t *testing.T) {
	cases := []struct {
		q    Query
		want int
	}{
		{Query{}, 2},                               // hash, spill
		{Query{Order: true}, 1},                    // sort
		{Query{Order: true, Limit: 8}, 2},          // topk, sort
		{Query{Dims: 1}, 8},                        // 4 joins × 2 aggs
		{Query{Dims: 2}, 6},                        // 3 joins (no merge) × 2
		{Query{Dims: 3, Order: true, Limit: 8}, 6}, // 3 joins × 2 orders
	}
	for _, c := range cases {
		alts := c.q.Alternatives()
		if len(alts) != c.want {
			t.Errorf("dims=%d order=%v limit=%d: %d alternatives, want %d",
				c.q.Dims, c.q.Order, c.q.Limit, len(alts), c.want)
		}
		seen := map[string]bool{}
		for _, a := range alts {
			if seen[a.String()] {
				t.Errorf("duplicate alternative %q", a.String())
			}
			seen[a.String()] = true
		}
	}
	if (Alternative{}).String() != "direct" {
		t.Errorf("empty alternative = %q, want direct", (Alternative{}).String())
	}
}

// TestEnsureChainIdempotent: repeated chain provisioning must not
// re-allocate (address stability is what repeat determinism rests on).
func TestEnsureChainIdempotent(t *testing.T) {
	env := testEnv(core.PlainCPU, false)
	ds := GenDataset(env, testDim, testFact, testSeed)
	EnsureChain(env, ds, 2)
	base := ds.Extra[0].Tup.Base
	used := env.Space.Used(env.DataRegion())
	EnsureChain(env, ds, 2)
	if len(ds.Extra) != 2 || ds.Extra[0].Tup.Base != base {
		t.Fatal("EnsureChain re-allocated existing levels")
	}
	if got := env.Space.Used(env.DataRegion()); got != used {
		t.Fatalf("EnsureChain leaked %d bytes on re-run", got-used)
	}
	EnsureChain(env, ds, 3)
	if len(ds.Extra) != 3 {
		t.Fatalf("chain depth %d, want 3", len(ds.Extra))
	}
}
