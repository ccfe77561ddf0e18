// Command bench runs the simulator's fidelity suite (internal/bench) and
// writes its BENCH_engine.json report: minutes at full scale, seconds
// with -quick, which is also the scale the golden snapshot
// (-check-golden / -update-golden) pins. It checks simulated numbers
// against the golden file, the nine gates and the reference engine, and
// times nothing; host cost is measured by go run ./benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sgxbench/internal/bench"
)

// validateFlags rejects what would silently mis-run, before any workload
// runs (the full suite takes minutes). Positional args also mean flag
// parsing stopped early and every later flag was ignored.
func validateFlags(o bench.Options, args []string) error {
	switch {
	case len(args) > 0:
		return fmt.Errorf("unexpected argument %q (flags after it were not parsed)", args[0])
	case o.Threads < 1:
		return fmt.Errorf("-threads %d must be >= 1", o.Threads)
	case o.CheckGolden && o.UpdateGolden:
		return fmt.Errorf("-check-golden and -update-golden are mutually exclusive")
	case (o.CheckGolden || o.UpdateGolden) && !o.Quick:
		return fmt.Errorf("the golden snapshot covers -quick numbers only; add -quick")
	}
	if err := writableDir("-out", o.Out); err != nil || !o.UpdateGolden {
		return err
	}
	return writableDir("-golden", o.Golden)
}

// writableDir checks that the file a flag names can be created.
func writableDir(flagName, path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".bench-probe-*")
	if err != nil {
		return fmt.Errorf("%s %s: %w", flagName, path, err)
	}
	f.Close()
	return os.Remove(f.Name())
}

func main() {
	var o bench.Options
	flag.BoolVar(&o.Quick, "quick", false, "small sizes and single repetitions (CI smoke run)")
	flag.StringVar(&o.Out, "out", "BENCH_engine.json", "output JSON report file")
	flag.IntVar(&o.Threads, "threads", 4, "worker threads for the sweep workloads")
	flag.StringVar(&o.Golden, "golden", "BENCH_GOLDEN.json", "golden snapshot of deterministic -quick simulated numbers")
	flag.BoolVar(&o.CheckGolden, "check-golden", false, "fail on any drift of deterministic simulated numbers vs the golden snapshot (-quick only)")
	flag.BoolVar(&o.UpdateGolden, "update-golden", false, "rewrite the golden snapshot from this run (-quick only); use after intentional timing-model changes")
	flag.Parse()
	if err := validateFlags(o, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	rep, err := bench.Run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.OK() {
		os.Exit(1)
	}
}
