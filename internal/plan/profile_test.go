package plan

import (
	"bytes"
	"strings"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
	"sgxbench/internal/platform"
)

// profileRun executes one pipeline with an optional profiler attached,
// on the fast or reference engine path.
func profileRun(t *testing.T, p Query, setting core.Setting, ref bool, prof *obs.Profiler) *Result {
	t.Helper()
	env := core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   setting,
		Reference: ref,
	})
	ds := GenDataset(env, pipeDim, pipeFact, 1234)
	return p.Run(env, ds, Options{Threads: pipelineThreads(p.Name), Pred: pipePred, Profiler: prof})
}

// TestProfilerZeroPerturbation is the profiling half of the
// zero-perturbation invariant: attaching a cycle-attribution profiler
// must leave check values, wall cycles and aggregate statistics
// bit-identical for every pipeline under every execution setting, on
// both engine paths.
func TestProfilerZeroPerturbation(t *testing.T) {
	t.Parallel()
	settings := []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
	for _, p := range Fixed() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, setting := range settings {
				for _, ref := range []bool{false, true} {
					label := p.Name + "/" + setting.String()
					if ref {
						label += "/ref"
					}
					bare := profileRun(t, p, setting, ref, nil)
					prof := obs.NewProfiler("run")
					traced := profileRun(t, p, setting, ref, prof)
					if bare.Check != traced.Check {
						t.Errorf("%s: check off=%#x on=%#x", label, bare.Check, traced.Check)
					}
					if bare.WallCycles != traced.WallCycles {
						t.Errorf("%s: wall cycles off=%d on=%d", label, bare.WallCycles, traced.WallCycles)
					}
					if bare.Stats != traced.Stats {
						t.Errorf("%s: stats differ with profiler attached", label)
					}
					if prof.Root().Cycles != traced.WallCycles {
						t.Errorf("%s: profile root %d cycles, run wall %d", label, prof.Root().Cycles, traced.WallCycles)
					}
				}
			}
		})
	}
}

// TestProfilerTreeAccountsPipeline pins the profile's shape for one
// representative hash pipeline: the pipeline scope carries the full
// wall time, its stage children partition it (plus EDMM commit leaves),
// and the folded export's self times sum back to the total.
func TestProfilerTreeAccountsPipeline(t *testing.T) {
	p, err := ByName(Q2Name)
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.NewProfiler("run")
	res := profileRun(t, p, core.SGXDiE, false, prof)

	root := prof.Root()
	if len(root.Children) != 1 {
		t.Fatalf("root has %d children, want the pipeline scope", len(root.Children))
	}
	q2 := root.Children[0]
	if q2.Name != Q2Name {
		t.Fatalf("pipeline scope = %q, want %q", q2.Name, Q2Name)
	}
	if q2.Cycles != res.WallCycles {
		t.Fatalf("pipeline scope %d cycles, run wall %d", q2.Cycles, res.WallCycles)
	}
	var stageSum uint64
	stages := map[string]bool{}
	for _, c := range q2.Children {
		stages[c.Name] = true
		stageSum += c.Cycles
	}
	for _, want := range []string{"filter", "gather", "join", "agg"} {
		if !stages[want] {
			t.Errorf("profile missing stage scope %q (has %v)", want, stages)
		}
	}
	if stageSum != q2.Cycles {
		t.Errorf("stage scopes sum to %d, pipeline inclusive %d (self=%d)",
			stageSum, q2.Cycles, q2.SelfCycles())
	}
	// Leaf phases carry the engine attribution keys.
	join := childNode(t, q2, "join")
	if len(join.Children) == 0 {
		t.Fatal("join scope has no phase leaves")
	}
	var sawWork bool
	for _, leaf := range join.Children {
		for _, a := range leaf.Attrs {
			if a.Key == "work" {
				sawWork = true
			}
		}
	}
	if !sawWork {
		t.Error("no join phase leaf carries a work attribution")
	}

	// The folded export is flamegraph-shaped and conserves cycles.
	var buf bytes.Buffer
	if err := prof.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || !strings.HasPrefix(line, "run;"+Q2Name) {
			t.Fatalf("malformed folded line %q", line)
		}
		var v uint64
		for _, c := range line[i+1:] {
			if c < '0' || c > '9' {
				t.Fatalf("malformed self count in %q", line)
			}
			v = v*10 + uint64(c-'0')
		}
		total += v
	}
	if total != res.WallCycles {
		t.Errorf("folded self total %d, want wall %d", total, res.WallCycles)
	}
}

// childNode finds a named child or fails the test.
func childNode(t *testing.T, n *obs.Node, name string) *obs.Node {
	t.Helper()
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("node %q has no child %q", n.Name, name)
	return nil
}
