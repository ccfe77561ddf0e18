package agg

import (
	"fmt"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
)

// TestSpillPartsEquivalent runs SpillRunOn without Parts, with a Parts
// that holds every row (its host words then back the first staging
// buffer) and with one too short to use: where the host words live may
// never move a simulated number. Every env allocates both candidate
// buffers before the run, so the operator's own ranges land at the same
// addresses in all three. The cases cover both settings, an EPC-limited
// env that drains its input into the second staging buffer, and a plan
// of two partitioning passes, which writes both staging buffers.
func TestSpillPartsEquivalent(t *testing.T) {
	for _, tc := range []struct {
		name        string
		setting     core.Setting
		n, groups   int
		pages       int64
		drain, deep bool // want a drain phase / more than one pass
	}{
		{"plain", core.PlainCPU, 15000, 700, 0, false, false},
		{"die", core.SGXDiE, 15000, 700, 0, false, false},
		{"die/drain", core.SGXDiE, 15000, 700, aggEPCHalf(15000), true, false},
		{"die/two-pass", core.SGXDiE, 40000, 8000, 4, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var base *Result
			for _, way := range []string{"nil", "full", "short"} {
				env := spillTestEnv(tc.setting, false, tc.pages)
				ins := []Input{{Tup: genTuples(env, tc.n, tc.groups, true, 31), N: tc.n}}
				bufs := map[string]*mem.U64Buf{
					"full":  env.Space.AllocU64("parts.full", tc.n, env.DataRegion()),
					"short": env.Space.AllocU64("parts.short", tc.n/2, env.DataRegion()),
				}
				if drain := env.SpillRegion() != env.DataRegion(); drain != tc.drain {
					t.Fatalf("drain=%v, want %v", drain, tc.drain)
				}
				load := int64(tc.groups)*EntryBytes + int64(tc.n)*4
				if passes := kernels.SplitBits(kernels.PartitionBits(load, env.SpillTarget(2), 1, 16), 8); (len(passes) > 1) != tc.deep {
					t.Fatalf("plans passes %v, want more than one: %v", passes, tc.deep)
				}
				g := env.NewGroup(2, nil)
				res := SpillRunOn(env, g, ins, Options{Sel: ByKey, Groups: tc.groups, Parts: bufs[way]})
				g.Release()
				label := fmt.Sprintf("%s/parts=%s", tc.name, way)
				verifyAgainstOracle(t, label, res, Reference(ins, ByKey))
				if base == nil {
					base = res
					continue
				}
				if res.Check != base.Check || res.Groups != base.Groups || res.WallCycles != base.WallCycles || res.Stats != base.Stats {
					t.Errorf("%s: check %#x groups %d wall %d stats %+v; without Parts: %#x %d %d %+v",
						label, res.Check, res.Groups, res.WallCycles, res.Stats, base.Check, base.Groups, base.WallCycles, base.Stats)
				}
			}
		})
	}
}

// oneDigitTuples returns n tuples over the given number of groups whose
// keys all share the top 16 bits of their hash, so every plan of up to
// 16 partition bits puts every group in one partition.
func oneDigitTuples(env *core.Env, n, groups int) *mem.U64Buf {
	// The inverse of the odd hash multiplier mod 2^32 (Newton's
	// iteration doubles the correct low bits each step).
	const a = uint32(2654435761)
	inv := a
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	tup := env.Space.AllocU64("in", n, env.DataRegion())
	for i := range tup.D {
		h := uint32(0x5a5a)<<16 | uint32(i%groups)*97
		tup.D[i] = mem.MakeTuple(h*inv, uint32(i))
	}
	return tup
}

// TestArenaGrowsPastPresize: a worker's host arena starts at twice a
// partition's share of the Groups hint; an input whose groups all land
// in one partition must grow it, and still match the oracle.
func TestArenaGrowsPastPresize(t *testing.T) {
	const n, groups, hint = 2000, 500, 64
	for _, op := range []struct {
		name string
		run  func(*core.Env, []Input, Options) *Result
	}{{"run", Run}, {"spill", SpillRun}} {
		env := testEnv()
		ins := []Input{{Tup: oneDigitTuples(env, n, groups), N: n}}
		res := op.run(env, ins, Options{Threads: 2, Sel: ByKey, Groups: hint})
		want := Reference(ins, ByKey)
		if len(want) != groups {
			t.Fatalf("%s: input has %d groups, want %d", op.name, len(want), groups)
		}
		P := len(res.PartGroups)
		full := 0
		for _, gp := range res.PartGroups {
			if gp > 0 {
				full++
			}
		}
		if presize := max(2*((hint+P-1)/P), 16); full != 1 || res.Groups <= presize {
			t.Fatalf("%s: groups %v over %d partitions, want all %d in one, past the pre-size %d", op.name, res.PartGroups, P, groups, presize)
		}
		verifyAgainstOracle(t, op.name, res, want)
	}
}

// TestShortBuffersPanic: a caller-supplied Parts or Out too short for the
// input stops the operator before its first phase with a message naming
// the buffer, its length and what the rows need (a short Parts is only
// ignored by SpillRunOn, which TestSpillPartsEquivalent covers).
func TestShortBuffersPanic(t *testing.T) {
	const n = 6000
	direct := func(env *core.Env, _ *exec.Group, ins []Input, opt Options) *Result { return DirectRun(env, ins, opt) }
	for _, tc := range []struct {
		name string
		run  func(*core.Env, *exec.Group, []Input, Options) *Result
		opt  func(env *core.Env) Options
		want string
	}{
		{"run/parts", RunOn, func(env *core.Env) Options {
			return Options{Parts: env.Space.AllocU64("short", 100, env.DataRegion())}
		}, `agg: RunOn Options.Parts "short" holds 100 words (800 bytes), 6000 input rows need 6000`},
		{"run/parts-range", RunOn, func(env *core.Env) Options {
			return Options{Parts: &mem.U64Buf{Buffer: env.Space.Alloc("short", 800, env.DataRegion()), D: make([]uint64, n)}}
		}, `agg: RunOn Options.Parts "short" holds 6000 words (800 bytes), 6000 input rows need 6000`},
		{"run/out", RunOn, func(env *core.Env) Options {
			return Options{Out: env.Space.AllocU64("short", n, env.DataRegion())}
		}, `agg: RunOn Options.Out "short" holds 6000 words (48000 bytes), 6000 input rows need 24000`},
		{"spill/out", SpillRunOn, func(env *core.Env) Options {
			return Options{Out: env.Space.AllocU64("short", 100, env.DataRegion())}
		}, `agg: SpillRunOn Options.Out "short" holds 100 words (800 bytes), 6000 input rows need 24000`},
		{"direct/out", direct, func(env *core.Env) Options {
			return Options{Out: env.Space.AllocU64("short", 100, env.DataRegion())}
		}, `agg: DirectRun Options.Out "short" holds 100 words (800 bytes), 6000 input rows need 24000`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv()
			ins := []Input{{Tup: genTuples(env, n/2, 50, false, 3), N: n / 2}, {Tup: genTuples(env, n/2, 50, false, 4), N: n / 2}}
			g := env.NewGroup(2, nil)
			defer g.Release()
			mark := g.Mark()
			got := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				tc.run(env, g, ins, tc.opt(env))
				return ""
			}()
			if got != tc.want {
				t.Errorf("panic %q, want %q", got, tc.want)
			}
			if phases, _, _ := g.Since(mark); len(phases) != 0 {
				t.Errorf("%d phases ran before the panic", len(phases))
			}
		})
	}
}
