package join

import (
	"testing"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// TestRecycledModelsRepeat runs PHT, RHO and a group-by twice in one
// process, each time on a fresh Env. Every Run releases its group when it
// returns, so the second run's threads start on the cache and TLB models
// the first run handed back. A recycled model must be indistinguishable
// from a new one: cycles, stats and results repeat exactly.
func TestRecycledModelsRepeat(t *testing.T) {
	type outcome struct {
		wall   uint64
		stats  engine.Stats
		result uint64 // join matches or group-by checksum
	}
	joinRun := func(alg Algorithm) func(*core.Env) outcome {
		return func(env *core.Env) outcome {
			build, probe := rel.GenFKPair(env.Space, 4000, 16000, env.DataRegion(), 7)
			res, err := alg.Run(env, build, probe, Options{Threads: 2, Optimized: true})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res.WallCycles, res.Stats, res.Matches}
		}
	}
	runs := []struct {
		name string
		run  func(*core.Env) outcome
	}{
		{"PHT", joinRun(NewPHT())},
		{"RHO", joinRun(NewRHO())},
		{"agg", func(env *core.Env) outcome {
			const rows, groups = 20000, 500
			in := env.Space.AllocU64("in", rows, env.DataRegion())
			for i := range in.D {
				in.D[i] = mem.MakeTuple(uint32(i*7919%groups+1), uint32(i))
			}
			res := agg.Run(env, []agg.Input{{Tup: in, N: rows}}, agg.Options{Threads: 2, Groups: groups})
			return outcome{res.WallCycles, res.Stats, res.Check}
		}},
	}
	for _, s := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		for _, r := range runs {
			first := r.run(testEnv(s))
			if second := r.run(testEnv(s)); second != first {
				t.Errorf("%s on %v: second run on recycled models gave %+v, first %+v", r.name, s, second, first)
			}
		}
	}
}
