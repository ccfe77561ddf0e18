package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxbench/internal/bench"
)

// TestValidateFlags covers the flag combinations that used to mis-run
// silently: each must be rejected before any workload runs.
func TestValidateFlags(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	good := bench.Options{Out: filepath.Join(dir, "out.json"), Golden: filepath.Join(dir, "golden.json"), Threads: 4}
	with := func(edit func(*bench.Options)) bench.Options {
		o := good
		edit(&o)
		return o
	}
	for _, tc := range []struct {
		name    string
		o       bench.Options
		args    []string
		wantErr string // "" accepts
	}{
		{name: "defaults", o: good},
		{name: "quick check", o: with(func(o *bench.Options) { o.Quick, o.CheckGolden = true, true })},
		{name: "quick update", o: with(func(o *bench.Options) { o.Quick, o.UpdateGolden = true, true })},
		{name: "check reads a golden whose directory is missing", o: with(func(o *bench.Options) {
			o.Quick, o.CheckGolden, o.Golden = true, true, filepath.Join(dir, "absent", "g.json")
		})},
		{name: "positional argument", o: with(func(o *bench.Options) { o.Quick = true }), args: []string{"bogus", "-out", "x.json"}, wantErr: `"bogus"`},
		{name: "zero threads", o: with(func(o *bench.Options) { o.Threads = 0 }), wantErr: "-threads 0"},
		{name: "negative threads", o: with(func(o *bench.Options) { o.Threads = -1 }), wantErr: "-threads -1"},
		{name: "check and update", o: with(func(o *bench.Options) { o.Quick, o.CheckGolden, o.UpdateGolden = true, true, true }), wantErr: "mutually exclusive"},
		{name: "check without quick", o: with(func(o *bench.Options) { o.CheckGolden = true }), wantErr: "add -quick"},
		{name: "update without quick", o: with(func(o *bench.Options) { o.UpdateGolden = true }), wantErr: "add -quick"},
		{name: "out directory missing", o: with(func(o *bench.Options) { o.Out = filepath.Join(dir, "absent", "o.json") }), wantErr: "-out"},
		{name: "out under a plain file", o: with(func(o *bench.Options) { o.Out = filepath.Join(file, "o.json") }), wantErr: "-out"},
		{name: "update into a missing directory", o: with(func(o *bench.Options) {
			o.Quick, o.UpdateGolden, o.Golden = true, true, filepath.Join(dir, "absent", "g.json")
		}), wantErr: "-golden"},
	} {
		err := validateFlags(tc.o, tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".bench-probe-*")); len(left) != 0 {
		t.Errorf("validateFlags left probe files behind: %v", left)
	}
}
