package plan

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"sgxbench/internal/core"
)

// coeffs flattens a model's coefficients by field name: every float64
// field, and every map entry as "Field.key". It walks the struct, so a
// coefficient added to Model is pinned without touching this file.
func coeffs(m *Model) map[string]float64 {
	out := map[string]float64{}
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			out[name] = f.Float()
		case reflect.Map:
			for _, k := range f.MapKeys() {
				out[name+"."+k.String()] = f.MapIndex(k).Float()
			}
		}
	}
	return out
}

// pinnedCoeffs is every calibrated coefficient of two models as
// math.Float64bits, recorded from commit 91404f4 — before calibration
// stopped re-running and started cutting its probes. A cheaper
// calibration, and the committed table, must reproduce each of them bit
// for bit.
var pinnedCoeffs = map[core.Setting]map[string]uint64{
	core.SGXDiE: {
		"FilterRow": 0x3fe25a0000000000, "GatherRow": 0x4020a687c1754420,
		"AggFixed": 0x40964ef6dbddbb90, "AggRow": 0x4022713c4147bdc3,
		"SpillAggFixed": 0x40af27f731a15588, "SpillAggRow": 0x402046bc786a0e74,
		"TopKFixed": 0x40db59a260018810, "TopKRow": 0x3ffe4629723d8c16,
		"ProjectRow": 0x40040575c332023c, "SortUnit": 0x40022c7065c872bd,
		"MergeRow": 0x4001947a50962239, "inlDepth": 0x402005bf942dbbc2,
		"JoinFixed.grace": 0x40ba6075c832281c, "JoinFixed.inl": 0x0,
		"JoinFixed.merge": 0x0, "JoinFixed.rho": 0x40bff7419140d978,
		"JoinRow.grace": 0x401e379cd5d5fabc, "JoinRow.inl": 0x4014cdfca65bfc5d,
		"JoinRow.merge": 0x0, "JoinRow.rho": 0x4028735757eaf11e,
		"Kappa.agg.hash": 0x4086cd2000000000, "Kappa.agg.spill": 0x406b174000000000,
		"Kappa.grace": 0x403141d49e99e769, "Kappa.inl": 0x4026e1e1e1e1e1e2,
		"Kappa.merge": 0x402366c96dd52c12, "Kappa.rho": 0x4048b8a4ae1310b7,
	},
	core.PlainCPU: {
		"FilterRow": 0x3fe1990000000000, "GatherRow": 0x401e3d4d0f82ea88,
		"AggFixed": 0x40ba89cbe18fb8c8, "AggRow": 0x4010d884178bfd21,
		"SpillAggFixed": 0x40bd78881076b0fb, "SpillAggRow": 0x400e47b182b43d12,
		"TopKFixed": 0x40da01b83f2ca720, "TopKRow": 0x3ffe2da86ad27c57,
		"ProjectRow": 0x4001d19704d6ed04, "SortUnit": 0x4001da1f0f72fcf5,
		"MergeRow": 0x3fff3f79c348bfa4, "inlDepth": 0x402005bf942dbbc2,
		"JoinFixed.grace": 0x40aab939dcae044c, "JoinFixed.inl": 0x0,
		"JoinFixed.merge": 0x0, "JoinFixed.rho": 0x40ac3303af679da0,
		"JoinRow.grace": 0x401a6f212aa48a69, "JoinRow.inl": 0x401487bab3170537,
		"JoinRow.merge": 0x0, "JoinRow.rho": 0x40254eeb90645036,
	},
}

// TestCalibrationPinned: same planner, bit for bit — both a fresh
// calibration and the committed modelTable entry of each pinned setting
// at 2 threads. inlDepth is a package constant now; it is pinned with
// the coefficients it scales.
func TestCalibrationPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64; other targets may fuse the fits' multiply-adds")
	}
	for setting, want := range pinnedCoeffs {
		for src, m := range map[string]*Model{"calibrate": calibrate(setting, 2), "modelTable": modelTable[modelKey{setting, 2}]} {
			if m == nil {
				t.Errorf("%s %s: no model", setting, src)
				continue
			}
			got := coeffs(m)
			got["inlDepth"] = inlDepth
			if len(got) != len(want) {
				t.Errorf("%s %s: %d coefficients, pinned %d", setting, src, len(got), len(want))
			}
			for name, bits := range want {
				if g := math.Float64bits(got[name]); g != bits {
					t.Errorf("%s %s %s = %#x (%v), pinned %#x (%v)", setting, src, name, g, got[name], bits, math.Float64frombits(bits))
				}
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite model_table.go from a fresh calibration of every table key")

// tableSettings and tableThreads span modelTable's keys: every setting at
// each thread count the repository plans with — 1 for serve.Calibrate's
// suite classes, 2 for the benchmark and this package's tests, 4 for
// cmd/bench's default (which cmd/diag -replay reuses). Any other count
// is calibrated on first use.
var (
	tableSettings = []struct {
		s     core.Setting
		ident string
	}{{core.PlainCPU, "core.PlainCPU"}, {core.PlainCPUM, "core.PlainCPUM"}, {core.SGXDoE, "core.SGXDoE"}, {core.SGXDiE, "core.SGXDiE"}}
	tableThreads = []int{1, 2, 4}
)

// TestModelTable re-derives every modelTable entry with calibrate and
// names each key and coefficient whose bits moved. A timing-model change
// fails here until the table is regenerated on purpose:
//
//	go test ./internal/plan -run TestModelTable -update
func TestModelTable(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*update {
		t.Skip("bits recorded on amd64; other targets may fuse the fits' multiply-adds")
	}
	var gen bytes.Buffer
	gen.WriteString(`// Code generated by "go test -run TestModelTable -update"; DO NOT EDIT.

package plan

import (
	"math"

	"sgxbench/internal/core"
)

// modelTable is calibrate's output for every (setting, threads) key the
// repository plans with, bit for bit: ModelFor returns these models
// without running a probe. TestModelTable re-derives each of them.
var modelTable = map[modelKey]*Model{
`)
	n := 0
	for _, ts := range tableSettings {
		for _, threads := range tableThreads {
			n++
			key := fmt.Sprintf("(%s, %d)", ts.s, threads)
			got := calibrate(ts.s, threads)
			writeModel(&gen, ts.ident, got)
			if *update {
				continue
			}
			tab, ok := modelTable[modelKey{ts.s, threads}]
			if !ok {
				t.Errorf("%s: missing from modelTable", key)
				continue
			}
			if tab.Setting != ts.s || tab.Threads != threads {
				t.Errorf("%s: modelTable entry is for (%s, %d)", key, tab.Setting, tab.Threads)
			}
			want, have := coeffs(tab), coeffs(got)
			for _, name := range sortedNames(want, have) {
				w, wok := want[name]
				h, hok := have[name]
				switch {
				case !wok:
					t.Errorf("%s %s: calibrate gives %v, modelTable has no entry", key, name, h)
				case !hok:
					t.Errorf("%s %s: modelTable holds %v, calibrate gives no entry", key, name, w)
				case math.Float64bits(w) != math.Float64bits(h):
					t.Errorf("%s %s: calibrate gives %#x (%v), modelTable holds %#x (%v)",
						key, name, math.Float64bits(h), h, math.Float64bits(w), w)
				}
			}
		}
	}
	gen.WriteString("}\n")
	if *update {
		src, err := format.Source(gen.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("model_table.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(modelTable) != n {
		t.Errorf("modelTable has %d entries, want %d", len(modelTable), n)
	}
	if t.Failed() {
		t.Log("if the timing model changed on purpose: go test ./internal/plan -run TestModelTable -update")
	}
}

// writeModel appends m as one modelTable entry: every coefficient as its
// exact bits, map entries in key order.
func writeModel(w *bytes.Buffer, settingIdent string, m *Model) {
	lit := func(x float64) string { return fmt.Sprintf("math.Float64frombits(%#016x)", math.Float64bits(x)) }
	fmt.Fprintf(w, "{%s, %d}: {\nSetting: %s,\nThreads: %d,\n", settingIdent, m.Threads, settingIdent, m.Threads)
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(w, "%s: %s,\n", name, lit(f.Float()))
		case reflect.Map:
			fmt.Fprintf(w, "%s: map[string]float64{", name)
			keys := make([]string, 0, f.Len())
			for _, k := range f.MapKeys() {
				keys = append(keys, k.String())
			}
			sort.Strings(keys)
			if len(keys) > 0 {
				w.WriteString("\n")
			}
			for _, k := range keys {
				fmt.Fprintf(w, "%q: %s,\n", k, lit(f.MapIndex(reflect.ValueOf(k)).Float()))
			}
			w.WriteString("},\n")
		}
	}
	w.WriteString("},\n")
}

// sortedNames is the sorted union of two coefficient maps' names.
func sortedNames(a, b map[string]float64) []string {
	var names []string
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// calProbes lists every probe kind calibration runs: the query, the
// strategy and the stage it measures (and is cut at).
func calProbes() []struct {
	q     Query
	alt   Alternative
	stage string
} {
	return []struct {
		q     Query
		alt   Alternative
		stage string
	}{
		{Query{Name: "cal.base"}, Alternative{Agg: AggHash}, "agg"},
		{Query{Name: "cal.spill"}, Alternative{Agg: AggSpill}, "agg"},
		{Query{Name: "cal.topk", Order: true, Limit: calK}, Alternative{Ord: OrdTopK}, "topk"},
		{Query{Name: "cal.rho", Dims: 1}, Alternative{Join: JoinRHO, Agg: AggHash}, "join"},
		{Query{Name: "cal.inl", Dims: 1}, Alternative{Join: JoinINL, Agg: AggHash}, "join"},
		{Query{Name: "cal.grace", Dims: 1}, Alternative{Join: JoinGrace, Agg: AggHash}, "join"},
		{Query{Name: "cal.merge", Dims: 1}, Alternative{Join: JoinMerge, Agg: AggHash}, "join"},
		{Query{Name: "cal.chain", Dims: 2}, Alternative{Join: JoinRHO, Agg: AggHash}, "project"},
	}
}

// TestProbeCutEqualsFullTree is the proof obligation of cutting probe
// trees: every stage a cut probe executes — the measured one included —
// reports the cycles and rows the same stage reports when the full
// Query.Tree runs, resident and (where the setting pages) under the
// halved EPC the kappa probes use.
func TestProbeCutEqualsFullTree(t *testing.T) {
	t.Parallel()
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE, core.SGXDoE, core.PlainCPUM} {
		for _, threads := range []int{1, 2} {
			limits := []int64{0}
			if setting.DataInEPC() {
				limits = append(limits, wsPages(setting, threads)/2)
			}
			for _, p := range calProbes() {
				p.q.Pred = calPredHi
				for _, epc := range limits {
					cut, _ := calRun(setting, threads, epc, p.q, p.alt, p.stage)
					full, _ := calRun(setting, threads, epc, p.q, p.alt, "")
					if last := cut.Stages[len(cut.Stages)-1].Name; last != p.stage {
						t.Fatalf("%s/%d %s: cut tree ends at %q, want %q", setting, threads, p.q.Name, last, p.stage)
					}
					if p.stage != "agg" && p.stage != "topk" && len(full.Stages) <= len(cut.Stages) {
						t.Fatalf("%s/%d %s: full tree has %d stages, cut %d: nothing was cut", setting, threads, p.q.Name, len(full.Stages), len(cut.Stages))
					}
					for i, s := range cut.Stages {
						if f := full.Stages[i]; f != s {
							t.Errorf("%s/%d epc=%d %s: stage %d cut %+v != full %+v", setting, threads, epc, p.q.Name, i, s, f)
						}
					}
				}
			}
		}
	}
}

// TestCalibrationProbeRuns bounds the work of a cold calibration: 15
// resident pipelines per model, and for an EPC setting one footprint run
// plus six paged probes — no resident re-run.
func TestCalibrationProbeRuns(t *testing.T) {
	count := func(f func()) int64 {
		before := calRuns.Load()
		f()
		return calRuns.Load() - before
	}
	if n := count(func() { calibrate(core.PlainCPU, 2) }); n != 15 {
		t.Errorf("Plain CPU calibration ran %d probe pipelines, want 15", n)
	}
	if n := count(func() { calibrate(core.SGXDiE, 2) }); n != 22 {
		t.Errorf("SGX DiE calibration ran %d probe pipelines, want 22", n)
	}
	if p := wsPages(core.SGXDiE, 2); p != 284 {
		t.Errorf("wsPages(SGX DiE, 2) = %d, want 284", p)
	}
}

// TestModelForCalibratesOnce: concurrent first callers of one key share
// one calibration instead of each running (and all but one discarding)
// their own.
func TestModelForCalibratesOnce(t *testing.T) {
	const key = 7                                   // a thread count no other test calibrates
	modelCache.Delete(modelKey{core.PlainCPU, key}) // cold under -count=N too
	before := calRuns.Load()
	var wg sync.WaitGroup
	models := make([]*Model, 4)
	for i := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[i] = ModelFor(core.PlainCPU, key)
		}()
	}
	wg.Wait()
	if n := calRuns.Load() - before; n != 15 {
		t.Errorf("4 concurrent ModelFor calls ran %d probe pipelines, want 15", n)
	}
	for _, m := range models[1:] {
		if m != models[0] {
			t.Fatal("concurrent ModelFor calls returned different models")
		}
	}
}
