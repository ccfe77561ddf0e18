package plan

import (
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/scan"
)

// planAlts returns every alternative the monotonicity properties must
// hold for, across the shapes the suite exercises.
func planAlts() []struct {
	q   Query
	alt Alternative
} {
	return []struct {
		q   Query
		alt Alternative
	}{
		{Query{Pred: sel250}, Alternative{Agg: AggHash}},
		{Query{Pred: sel250}, Alternative{Agg: AggSpill}},
		{Query{Pred: sel250, Order: true, Limit: 256}, Alternative{Ord: OrdTopK}},
		{Query{Pred: sel250, Order: true}, Alternative{Ord: OrdSort}},
		{Query{Pred: sel250, Dims: 1}, Alternative{Join: JoinRHO, Agg: AggHash}},
		{Query{Pred: sel250, Dims: 1}, Alternative{Join: JoinINL, Agg: AggHash}},
		{Query{Pred: sel250, Dims: 1}, Alternative{Join: JoinGrace, Agg: AggSpill}},
		{Query{Pred: sel250, Dims: 1}, Alternative{Join: JoinMerge, Agg: AggHash}},
		{Query{Pred: sel250, Dims: 3, Order: true, Limit: 256}, Alternative{Join: JoinRHO, Ord: OrdTopK}},
	}
}

// TestCostMonotonicRows: modeled cost must be non-decreasing in the
// fact row count for every strategy, under every table model.
func TestCostMonotonicRows(t *testing.T) {
	for k, m := range modelTable {
		for _, c := range planAlts() {
			prev := 0.0
			for nf := 1 << 8; nf <= 1<<20; nf <<= 1 {
				got := m.Cost(c.q, c.alt, Shape{NDim: testDim, NFact: nf})
				if got < prev {
					t.Errorf("%s/%d/%s: cost(%d)=%.0f < cost(%d/2)=%.0f", k.setting, k.threads, c.alt, nf, got, nf, prev)
				}
				prev = got
			}
		}
	}
}

// TestCostMonotonicSelectivity: modeled cost must be non-decreasing in
// the filter selectivity at a fixed shape.
func TestCostMonotonicSelectivity(t *testing.T) {
	preds := []scan.Predicate{sel004, sel102, sel250, sel500, sel902}
	for k, m := range modelTable {
		for _, c := range planAlts() {
			prev := 0.0
			for _, p := range preds {
				q := c.q
				q.Pred = p
				got := m.Cost(q, c.alt, Shape{NDim: testDim, NFact: testFact})
				if got < prev {
					t.Errorf("%s/%d/%s: cost(sel=%.3f)=%.0f decreased", k.setting, k.threads, c.alt, p.Selectivity(), got)
				}
				prev = got
			}
		}
	}
}

// TestCostMonotonicPressure: modeled cost must be non-decreasing in the
// EPC oversubscription ratio (the calibrated kappa term scaled by the
// paging pressure factor), under every table model that pages.
func TestCostMonotonicPressure(t *testing.T) {
	for k, m := range modelTable {
		if !k.setting.DataInEPC() {
			continue
		}
		for _, c := range planAlts() {
			prev := 0.0
			for _, ratio := range []float64{0, 1, 1.5, 2, 3, 4, 8} {
				got := m.Cost(c.q, c.alt, Shape{NDim: testDim, NFact: testFact, EPCRatio: ratio})
				if got < prev {
					t.Errorf("%s/%d/%s: cost(ratio=%.1f)=%.0f < cost(prev)=%.0f", k.setting, k.threads, c.alt, ratio, got, prev)
				}
				prev = got
			}
		}
		for _, kappa := range m.Kappa {
			if kappa < 0 {
				t.Errorf("%s/%d: negative kappa coefficient: %+v", k.setting, k.threads, m.Kappa)
			}
		}
	}
}

// TestEnclaveInflationPinned pins the q2-vs-q5 relationship from the
// calibrated constants: running data-in-enclave inflates the hash
// join's per-probe-row cost by more than the sort unit — the measured
// asymmetry (hash probes are the random-access pattern SGX paging and
// store serialization punish; sort runs are sequential) that drives any
// hash-to-sort plan flip.
func TestEnclaveInflationPinned(t *testing.T) {
	plain := ModelFor(core.PlainCPU, 2)
	die := ModelFor(core.SGXDiE, 2)
	if die.JoinRow[JoinRHO] <= plain.JoinRow[JoinRHO] {
		t.Fatalf("hash join row cost not inflated in enclave: die=%.3f plain=%.3f",
			die.JoinRow[JoinRHO], plain.JoinRow[JoinRHO])
	}
	hashInfl := die.JoinRow[JoinRHO] / plain.JoinRow[JoinRHO]
	sortInfl := die.SortUnit / plain.SortUnit
	if hashInfl <= sortInfl {
		t.Fatalf("enclave inflation differential inverted: hash %.3fx <= sort %.3fx", hashInfl, sortInfl)
	}
}

// TestHashSpillCrossoverPinned pins the resident hash-vs-spill group-by
// crossover from the calibrated plain-CPU constants: the hash group-by
// wins below the row count where the affine cost curves cross, the
// spill group-by above it, and Choose flips exactly there.
func TestHashSpillCrossoverPinned(t *testing.T) {
	m := ModelFor(core.PlainCPU, 2)
	if m.SpillAggFixed <= m.AggFixed {
		t.Skipf("no resident crossover under these calibrated constants: spill fixed %.0f <= hash fixed %.0f",
			m.SpillAggFixed, m.AggFixed)
	}
	if m.SpillAggRow >= m.AggRow {
		t.Fatalf("spill slope %.3f >= hash slope %.3f: curves never cross", m.SpillAggRow, m.AggRow)
	}
	// The crossover in selected rows, from the affine coefficients.
	xRows := (m.SpillAggFixed - m.AggFixed) / (m.AggRow - m.SpillAggRow)
	sel := sel250.Selectivity()
	q := Query{Pred: sel250}
	hash, spill := Alternative{Agg: AggHash}, Alternative{Agg: AggSpill}
	below := Shape{NDim: testDim, NFact: int(xRows / sel * 0.9)}
	above := Shape{NDim: testDim, NFact: int(xRows / sel * 1.1)}
	if m.Cost(q, hash, below) >= m.Cost(q, spill, below) {
		t.Errorf("below crossover (%d rows): hash not cheaper", int(xRows*0.9))
	}
	if m.Cost(q, spill, above) >= m.Cost(q, hash, above) {
		t.Errorf("above crossover (%d rows): spill not cheaper", int(xRows*1.1))
	}
	if alt := Choose(m, q, below); alt.Agg != AggHash {
		t.Errorf("below crossover: planner picked %s", alt)
	}
	if alt := Choose(m, q, above); alt.Agg != AggSpill {
		t.Errorf("above crossover: planner picked %s", alt)
	}
}

// TestPressurePicksSpill: under 2-4x EPC oversubscription the DiE
// planner must choose the spill aggregation (its calibrated kappa is
// what the graceful-degradation operators exist to keep small).
func TestPressurePicksSpill(t *testing.T) {
	m := ModelFor(core.SGXDiE, 2)
	q := Query{Pred: sel902, Dims: 1}
	for _, ratio := range []float64{2, 3, 4} {
		sh := Shape{NDim: testDim, NFact: testFact, EPCRatio: ratio}
		if alt := Choose(m, q, sh); alt.Agg != AggSpill {
			costs := map[string]float64{}
			for _, a := range q.Alternatives() {
				costs[a.String()] = m.Cost(q, a, sh)
			}
			t.Errorf("ratio %.0f: picked %s, want a spill aggregation (costs %v)", ratio, alt, costs)
		}
	}
}

// TestChooseNeverWorseThanWorst is the in-package planner gate: the
// cost-based pick's measured wall cycles must never exceed the worst
// static alternative's, for representative suite shapes under plain and
// enclave settings.
func TestChooseNeverWorseThanWorst(t *testing.T) {
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		m := ModelFor(setting, 2)
		for _, name := range []string{"s07.j1.sel004.u.agg", "s11.j1.sel902.u.agg", "s14.j1.sel250.u.top"} {
			q := mustPipeline(t, name)
			measured := map[string]uint64{}
			var worst uint64
			for _, alt := range q.Alternatives() {
				env := testEnv(setting, false)
				ds := GenSuiteDataset(env, q, testDim, testFact, testSeed)
				res := Execute(env, ds, Options{Threads: 2, Pred: q.Pred, Limit: q.Limit}, q.Name, q.Tree(alt))
				measured[alt.String()] = res.WallCycles
				if res.WallCycles > worst {
					worst = res.WallCycles
				}
			}
			alt := Choose(m, q, Shape{NDim: testDim, NFact: testFact})
			if got := measured[alt.String()]; got > worst {
				t.Errorf("%s/%s: chosen %s measured %d > worst %d", setting, name, alt, got, worst)
			} else if got == worst && len(measured) > 1 {
				// Never-worse must be strict when the field is spread out.
				best := got
				for _, c := range measured {
					if c < best {
						best = c
					}
				}
				if float64(worst-best) > 0.05*float64(best) {
					t.Errorf("%s/%s: chosen %s is the worst alternative (%d, best %d)", setting, name, alt, got, best)
				}
			}
		}
	}
}

// TestModelCalibrationDeterminism: two independent calibrations of the
// same setting must produce identical constants (the probes run on the
// deterministic simulator), so table, cached and fresh models agree.
func TestModelCalibrationDeterminism(t *testing.T) {
	a, b := coeffs(calibrate(core.SGXDiE, 2)), coeffs(calibrate(core.SGXDiE, 2))
	if len(a) != len(b) {
		t.Fatalf("calibration not deterministic: %d vs %d coefficients", len(a), len(b))
	}
	for name, v := range a {
		if w, ok := b[name]; !ok || w != v {
			t.Errorf("%s not deterministic: %v vs %v", name, v, w)
		}
	}
}
