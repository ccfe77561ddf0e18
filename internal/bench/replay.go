package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"sgxbench/internal/core"
	"sgxbench/internal/exec"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/serve"
)

// goldenThreads is the -threads the golden snapshot is recorded at.
const goldenThreads = 4

// Entry is one golden entry resolved to the constructor its cmd/bench
// section records it from: the workload and scenario tables, the
// planner suite's pick, and the serving scenario builders on their
// calibrations. Lookup resolves one without running anything.
type Entry struct {
	Workload string
	Setting  core.Setting
	Profiled bool // a query pipeline: Replay returns its cycle-attribution profiler
	Traced   bool // a serving scenario: Replay returns a traced serve.Result
	run      func(b *bencher, s core.Setting, out *Replayed) (sample, error)
}

// Replayed is one replayed golden entry: the entry as the golden file
// holds it, and the detail cmd/diag prints next to it.
type Replayed struct {
	Result
	Phases   []exec.PhaseStats // every entry that runs operators (not micro.gather, not serving)
	Stages   []plan.StageStats // pipelines and planner picks
	Profiler *obs.Profiler     // pipelines
	Serve    *serve.Result     // serving entries; its Config holds the fault plan, tracer and metrics
	Classes  []serve.ClassCost // serving entries: the calibration replayed
}

// entries lists every golden entry, one per (workload, setting).
func entries() []Entry {
	var es []Entry
	add := func(name string, ss []core.Setting, e Entry) {
		for _, s := range ss {
			e.Workload, e.Setting = name, s
			es = append(es, e)
		}
	}
	die := []core.Setting{core.SGXDiE}
	for _, w := range workloads {
		if !w.twinOnly {
			add(w.name, settings, Entry{Profiled: w.profiled, run: func(b *bencher, s core.Setting, out *Replayed) (sample, error) {
				return w.prep(prepCtx{setting: s, threads: b.o.Threads, z: b.z, out: out})(), nil
			}})
		}
	}
	for _, w := range spillWorkloads {
		for _, r := range spillRatios {
			add(spillName(w.name, r), die, Entry{run: func(b *bencher, s core.Setting, out *Replayed) (sample, error) {
				return w.prep(prepCtx{setting: s, threads: b.o.Threads, z: b.z, out: out}, r)(), nil
			}})
		}
	}
	for _, q := range plan.Suite() {
		add(planName(q.Name, 0), settings, Entry{run: planEntry(q, 0)})
		for _, r := range flipRatios {
			if slices.Contains(flipQueries, q.Name) {
				add(planName(q.Name, r), die, Entry{run: planEntry(q, r)})
			}
		}
	}
	for _, sc := range serveScenarios() {
		add(sc.name, settings, Entry{Traced: true, run: servedEntry(serve.CalibrateOptions{},
			func(*serve.Workload) scenario { return sc })})
	}
	// Scenario names do not depend on the calibration: list them on a
	// stand-in whose classes all take zero cycles.
	zero := &serve.Workload{Classes: make([]serve.ClassCost, len(scaleWeights))}
	for i, sc := range faultScenarios(zero) {
		add(sc.name, die, Entry{Traced: true, run: servedEntry(serve.CalibrateOptions{},
			func(w *serve.Workload) scenario { return faultScenarios(w)[i] })})
	}
	for i, sc := range scaleScenarios(zero) {
		add(sc.name, die, Entry{Traced: true, run: servedEntry(scaleCalibration,
			func(w *serve.Workload) scenario { return scaleScenarios(w)[i] })})
	}
	return es
}

// planEntry measures q's field, which records the planner's pick.
func planEntry(q plan.Query, epcRatio int64) func(*bencher, core.Setting, *Replayed) (sample, error) {
	return func(b *bencher, s core.Setting, out *Replayed) (sample, error) {
		f := b.planField(s, q, epcRatio)
		out.Phases, out.Stages = f.chosen.Phases, f.chosen.Stages
		return planSample(f.chosen), nil
	}
}

// servedEntry calibrates o under the entry's setting and replays the
// scenario pick chooses on that calibration, as bencher.served does.
func servedEntry(o serve.CalibrateOptions, pick func(*serve.Workload) scenario) func(*bencher, core.Setting, *Replayed) (sample, error) {
	return func(b *bencher, s core.Setting, out *Replayed) (sample, error) {
		o := o
		o.Setting = s
		w, err := serve.Calibrate(o)
		if err != nil {
			return sample{}, err
		}
		res, v, err := b.simulate(w, pick(w))
		out.Serve, out.Classes = res, w.Classes
		return v, err
	}
}

// Lookup resolves the golden entry (workload, s); one the golden file
// does not pin is an error naming the entry families.
func Lookup(workload string, s core.Setting) (*Entry, error) {
	var families []string
	for _, e := range entries() {
		if e.Workload == workload && e.Setting == s {
			return &e, nil
		}
		if f, _, _ := strings.Cut(e.Workload, "."); !slices.Contains(families, f+".*") {
			families = append(families, f+".*")
		}
	}
	return nil, fmt.Errorf("golden pins no entry %q under %s; its entry families are %s", workload, s, strings.Join(families, " "))
}

// Replay runs the entry exactly as its cmd/bench section records it: at
// the golden file's -quick sizes, seeds and scales, goldenThreads
// threads, on the fast engine path, with the profiler or tracer the
// suite attaches. Its Result equals the entry's golden line.
func (e *Entry) Replay() (*Replayed, error) {
	b := &bencher{o: Options{Quick: true, Threads: goldenThreads}, z: quickSizes, out: io.Discard,
		vals: map[string]float64{}, rep: &Report{}}
	out := &Replayed{}
	v, err := e.run(b, e.Setting, out)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", e.Workload, e.Setting, err)
	}
	out.Result = v.result(e.Workload, e.Setting)
	return out, nil
}
