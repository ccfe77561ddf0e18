package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxbench/internal/core"
)

// TestPickMode pins the mode dispatch: no -replay selects the join mode,
// a golden entry the replay mode of its kind, and a name the golden file
// does not pin under the setting is an error naming the entry families.
func TestPickMode(t *testing.T) {
	for _, c := range []struct {
		replay string
		s      core.Setting
		want   runMode
		errs   []string // substrings of the expected error
	}{
		{"", core.PlainCPU, modeJoin, nil},
		{"join.PHT", core.PlainCPU, modeReplay, nil},
		{"micro.gather", core.SGXDoE, modeReplay, nil},
		{"spill.join.grace@2x", core.SGXDiE, modeReplay, nil},
		{"plan.s09.j1.sel250.u.agg@epc2", core.SGXDiE, modeReplay, nil},
		{"q2.filter-join-agg", core.SGXDiE, modePipeline, nil},
		{"q3s.join-agg-spill", core.PlainCPUM, modePipeline, nil},
		{"serve.mutex.dyn", core.PlainCPU, modeServing, nil},
		{"fault.crash.admit", core.SGXDiE, modeServing, nil},
		{"scale.shard.batch.c256", core.SGXDiE, modeServing, nil},
		{"spill.agg@2x", core.PlainCPU, 0, []string{`no entry "spill.agg@2x" under Plain CPU`}},
		{"fault.crash.admit", core.SGXDoE, 0, []string{`no entry "fault.crash.admit" under SGX DoE`}},
		{"join.INL", core.SGXDiE, 0, []string{`no entry "join.INL"`, "join.*", "plan.*", "serve.*", "fault.*", "scale.*"}},
	} {
		got, e, err := pickMode(c.replay, c.s)
		if len(c.errs) > 0 {
			for _, w := range c.errs {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Errorf("pickMode(%q, %s) = %v, want an error containing %q", c.replay, c.s, err, w)
				}
			}
			continue
		}
		if err != nil || got != c.want || (e == nil) != (c.replay == "") {
			t.Errorf("pickMode(%q, %s) = %d, %v, %v; want mode %d", c.replay, c.s, got, e, err, c.want)
		}
	}
}

// TestCheckFlags pins the flag/mode table: each command line below
// either runs, or exits 2 before running (a flag parse error, an
// unpinned -replay name or checkFlags), instead of running with a flag
// silently ignored.
func TestCheckFlags(t *testing.T) {
	// diagFlags visits diag's own flags, not the test binary's.
	diagFlags := func(fn func(f *flag.Flag)) {
		flag.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") {
				fn(f)
			}
		})
	}
	reset := func() {
		diagFlags(func(f *flag.Flag) {
			if err := f.Value.Set(f.DefValue); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Cleanup(reset)
	n := 0
	diagFlags(func(*flag.Flag) { n++ })
	if n != 10 {
		t.Errorf("diag defines %d flags, want 10", n)
	}
	for _, c := range []struct {
		args string
		want string // a substring of the error; empty: the line runs
	}{
		{"", ""},
		{"-alg PHT -opt -threads 4 -scale 256 -setting die", ""},
		{"-replay q2.filter-join-agg -setting die -profile p.folded", ""},
		{"-replay fault.crash.admit -setting die -trace t.json", ""},
		{"-replay serve.mutex.dyn -setting plain", ""},
		{"-replay spill.join.grace@2x -setting die", ""},
		{"-replay plan.s03.j0.sel902.u.agg -setting die -memprofile m.prof -cpuprofile c.prof", ""},
		{"-replay q2.filter-join-agg -setting die -profile p.folded -cpuprofile c.prof", ""},
		{"-replay fault.crash.admit -setting die -memprofile m.prof", ""},
		{"-cpuprofile c.prof", "-cpuprofile has no effect in join mode"},
		{"-alg PHT -memprofile m.prof", "-memprofile has no effect in join mode"},
		{"-replay join.PHT -alg PHT", "-alg has no effect in a -replay of an operator entry"},
		{"-replay q2.filter-join-agg -opt", "-opt has no effect in a -replay of a pipeline entry"},
		{"-replay fault.crash.admit -setting die -scale 512", "-scale has no effect in a -replay of a serving entry"},
		{"-replay plan.s01.j0.sel004.u.agg -threads 4", "-threads has no effect in a -replay of an operator entry"},
		{"-replay serve.lockfree.pre -setting die -profile p.folded", "-profile has no effect in a -replay of a serving entry"},
		{"-replay join.RHO -profile p.folded", "-profile has no effect in a -replay of an operator entry"},
		{"-replay q1.filter-agg -trace t.json", "-trace has no effect in a -replay of a pipeline entry"},
		{"-replay spill.agg@4x -setting die -trace t.json", "-trace has no effect in a -replay of an operator entry"},
		{"-trace x.json", "-trace has no effect in join mode"},
		{"-profile y.folded", "-profile has no effect in join mode"},
		{"-replay nonsense", `no entry "nonsense"`},
		{"-replay spill.agg@2x", `no entry "spill.agg@2x" under Plain CPU`},
		{"-query q1.filter-agg", "not defined: -query"},
		{"-fault -admit 0", "not defined: -fault"},
		{"-epc -ratio 2", "not defined: -epc"},
		{"-serve -clients 8", "not defined: -serve"},
	} {
		reset()
		fs := flag.NewFlagSet("diag", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		diagFlags(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
		err := fs.Parse(strings.Fields(c.args))
		if err == nil {
			s, _ := parseSetting(*setName)
			var m runMode
			if m, _, err = pickMode(*replayName, s); err == nil {
				var given []string
				fs.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
				err = checkFlags(m, given)
			}
		}
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("diag %s: error %v, want %q", c.args, err, c.want)
		}
	}
}

// TestParseSetting pins the setting-name table and its rejection of
// unknown names (main exits 2 on the false return).
func TestParseSetting(t *testing.T) {
	for name, want := range map[string]bool{
		"plain": true, "plainm": true, "doe": true, "die": true,
		"": false, "sgx": false, "DiE": false,
	} {
		if _, ok := parseSetting(name); ok != want {
			t.Errorf("parseSetting(%q) ok=%v, want %v", name, ok, want)
		}
	}
}

// TestCheckScale: the join's -scale must be a positive power of two that
// leaves the RowsForMB(100)/scale build relation some rows.
func TestCheckScale(t *testing.T) {
	for _, c := range []struct {
		scale int64
		ok    bool
	}{
		{1, true},
		{128, true},
		{1 << 23, true},
		{1 << 24, false},
		{1 << 26, false},
		{0, false},
		{-4, false},
		{3, false},
		{96, false},
	} {
		if err := checkScale(c.scale); (err == nil) != c.ok {
			t.Errorf("checkScale(%d) = %v, want ok=%v", c.scale, err, c.ok)
		}
	}
}

// profiledAlloc allocates n fresh bytes; TestHostProfiled looks for its
// name in the allocs profile.
//
//go:noinline
func profiledAlloc(n int) []byte { return make([]byte, n) }

var profiledSink [][]byte

// TestHostProfiled: -cpuprofile and -memprofile write gzipped pprof
// files, and the allocs profile samples every allocation of the run, a
// single small one included.
func TestHostProfiled(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := hostProfiled(cpu, mem, func() { profiledSink = append(profiledSink, profiledAlloc(24)) }); err != nil {
		t.Fatal(err)
	}
	profiledSink = nil
	for path, want := range map[string]string{cpu: "", mem: "diag.profiledAlloc"} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		raw, err := io.ReadAll(zr)
		f.Close()
		if err != nil || len(raw) == 0 {
			t.Fatalf("%s: %d bytes, %v", filepath.Base(path), len(raw), err)
		}
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("%s does not name %s", filepath.Base(path), want)
		}
	}
	if err := hostProfiled(filepath.Join(dir, "missing", "cpu.prof"), "", func() {}); err == nil {
		t.Error("an uncreatable -cpuprofile path returned no error")
	}
}
