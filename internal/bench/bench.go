// Package bench is the simulator's fidelity harness, driven by
// cmd/bench: it runs every golden entry — a fixed scan + join +
// query-pipeline suite across the paper's four execution settings on the
// batched fast path (the "sweep"), EPC oversubscription, the planner's
// picks and the serving scenarios — then re-runs every workload on the
// per-op reference engine (the "equivalence" section), asserting that
// both produce identical simulated results. It checks simulated numbers
// only — against the golden file, the nine gates and the reference
// engine — and times nothing: host cost is measured by the repository
// benchmark (go run ./benchmark). The report is the BENCH_engine.json
// run artefact.
//
// The suite is a registry, a gate table and one evaluator: entries()
// lists every golden entry in golden order with how to run and check
// it, Run walks it through bencher.entry (which Entry.Replay shares),
// gates states every ratio-vs-limit claim, and bencher.eval alone turns
// a row into its note and flag.
//
// Every workload is prepared once (environment, input data,
// pre-allocated result buffers — the paper pre-allocates result memory)
// and then run N times. Simulated caches start cold on every repetition
// (each run builds fresh threads), so the simulated results of a
// repetition are independent of the others.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/serve"
)

// Options carries cmd/bench's six flags, validated by its validateFlags.
type Options struct {
	Quick        bool   // small sizes and single repetitions (CI smoke run)
	Out          string // output JSON report file
	Threads      int    // worker threads for the sweep workloads
	Golden       string // golden snapshot path
	CheckGolden  bool   // fail on drift vs the snapshot (Quick only)
	UpdateGolden bool   // rewrite the snapshot from this run (Quick only)
}

// Result is one sweep entry: the simulated outcome of a (workload,
// setting) run on the fast path. The golden file holds these verbatim.
type Result struct {
	Workload  string       `json:"workload"`
	Setting   string       `json:"setting"`
	SimCycles uint64       `json:"sim_cycles"`
	Check     uint64       `json:"check"` // matches / cycle checksum for equivalence
	Stats     engine.Stats `json:"stats"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	Schema      string          `json:"schema"`
	Timestamp   string          `json:"timestamp"`
	GoVersion   string          `json:"go_version"`
	NumCPU      int             `json:"num_cpu"`
	Quick       bool            `json:"quick"`
	Sweep       []Result        `json:"sweep"`
	Serve       []*serve.Result `json:"serve"`
	Equivalent  bool            `json:"equivalence_ok"`
	GoldenOK    bool            `json:"golden_ok"`
	ServeOK     bool            `json:"serve_collapse_ok"`
	HashSortOK  bool            `json:"hash_vs_sort_ok"`
	PlannerOK   bool            `json:"planner_ok"`
	SpillOK     bool            `json:"spill_degradation_ok"`
	FaultOK     bool            `json:"fault_degradation_ok"`
	ShardOK     bool            `json:"shard_scaling_ok"`
	ObsOK       bool            `json:"obs_percentiles_ok"`
	TargetNotes []string        `json:"target_notes"`
}

// OK reports whether all nine gates hold.
func (r *Report) OK() bool {
	return r.Equivalent && r.GoldenOK && r.ServeOK && r.HashSortOK && r.PlannerOK &&
		r.SpillOK && r.FaultOK && r.ShardOK && r.ObsOK
}

// flag returns the report's bool field with the given JSON key, or nil.
func (r *Report) flag(key string) *bool {
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		if p, ok := v.Field(i).Addr().Interface().(*bool); ok && v.Type().Field(i).Tag.Get("json") == key {
			return p
		}
	}
	return nil
}

// gateFlags returns the JSON keys of the nine gate flags.
func gateFlags() []string {
	var keys []string
	t := reflect.TypeFor[Report]()
	for i := 0; i < t.NumField(); i++ {
		if k := t.Field(i).Tag.Get("json"); strings.HasSuffix(k, "_ok") {
			keys = append(keys, k)
		}
	}
	return keys
}

var settings = []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}

// sample is the simulated outcome of one run: everything the batched
// fast path may never change against the per-op reference engine.
type sample struct {
	cycles, check uint64
	stats         engine.Stats
	breakdown     serve.Breakdown     // serving scenarios only
	dispatch      serve.DispatchStats // serving scenarios only
}

// runner executes one repetition of a prepared workload.
type runner func() sample

// repeat runs r reps times and returns the per-repetition samples
// (index 0 is what the sweep reports and the golden gate compares).
func repeat(r runner, reps int) []sample {
	samples := make([]sample, reps)
	for k := range samples {
		samples[k] = r()
	}
	return samples
}

// raised returns r with every gate flag set: a check that fails clears
// its flag.
func raised(r *Report) *Report {
	for _, k := range gateFlags() {
		*r.flag(k) = true
	}
	return r
}

// rings are a serving run's trace and metrics ring capacities; they
// perturb no simulated value.
type rings struct{ spans, samples int }

// suiteRings are the rings of a suite run's serving entries and of
// every reference twin, which is compared on its sample alone.
var suiteRings = rings{1 << 12, 1 << 10}

// bencher is one suite run in progress.
type bencher struct {
	o   Options
	z   sizes
	out io.Writer
	rep *Report
	// vals holds every number a gate may read, keyed by key().
	vals map[string]float64
	// pctlViolations collects any serving run whose histogram percentiles
	// strayed from the exact sorted-slice oracle by more than one bucket
	// width (or whose Max stopped being exact): obs_percentiles_ok.
	pctlViolations []string
	cals           map[string]*serve.Workload // serve.Calibrate results, keyed by their options
	agree, decided int                        // planner entries whose pick is near-best / whose field is spread out
	rings          rings                      // the fast serving runs' rings; twins keep suiteRings
}

func (b *bencher) printf(format string, a ...any) { fmt.Fprintf(b.out, format, a...) }

// key names one gate-readable number: a metric of a (workload, setting).
func key(entry string, s core.Setting, metric string) string {
	return entry + "/" + s.String() + ":" + metric
}

// equivalent is the runtime check of the fast-path invariant: the
// reference engine must reproduce the fast path's sample bit for bit.
func (b *bencher) equivalent(name string, fast, ref sample) bool {
	if fast == ref {
		return true
	}
	b.printf("  EQUIVALENCE FAILURE: %s differs between engine paths (check %#x/%#x cycles %d/%d)\n",
		name, fast.check, ref.check, fast.cycles, ref.cycles)
	b.rep.Equivalent = false
	return false
}

// Run executes the suite at the scale o selects, printing progress to out
// and writing the report to o.Out; gate misses are in Report.OK, not err.
func Run(o Options, out io.Writer) (*Report, error) {
	if o.Quick {
		return run(o, quickSizes, out)
	}
	return run(o, fullSizes, out)
}

// run walks the registry in order — each family's header before its
// first entry, its gate rows after its last — then runs the equivalence
// and golden sections.
func run(o Options, z sizes, out io.Writer) (*Report, error) {
	b := &bencher{o: o, z: z, out: out, vals: map[string]float64{}, cals: map[string]*serve.Workload{},
		rings: suiteRings, rep: raised(&Report{
			Schema:    "sgxbench/bench_engine/v4",
			Timestamp: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			NumCPU:    runtime.NumCPU(),
			Quick:     o.Quick,
		})}
	es := entries()
	for i := range es {
		f := es[i].fam
		if f.head != nil && (i == 0 || f != es[i-1].fam) {
			f.head(b)
		}
		if _, err := b.entry(&es[i]); err != nil {
			return nil, err
		}
		if f.gate != nil && (i+1 == len(es) || f != es[i+1].fam) {
			if err := f.gate(b); err != nil {
				return nil, err
			}
		}
	}
	b.equivalence()
	if err := b.golden(); err != nil {
		return nil, err
	}
	b.obsCheck()
	if err := writeJSON(o.Out, b.rep); err != nil {
		return nil, err
	}
	b.printf("wrote %s\n", o.Out)
	return b.rep, nil
}

// obsCheck sets obs_percentiles_ok from the serving runs' percentile
// violations, printing each.
func (b *bencher) obsCheck() {
	b.rep.ObsOK = len(b.pctlViolations) == 0
	for _, v := range b.pctlViolations {
		b.printf("  OBS: histogram percentile violation: %s\n", v)
	}
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
