package engine_test

import (
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// gatherSetting is one (mode, data placement) combination — the engine-
// level equivalent of the paper's four execution settings.
type gatherSetting struct {
	name string
	mode engine.Mode
	kind mem.Kind
}

func gatherSettings() []gatherSetting {
	return []gatherSetting{
		{"PlainCPU", engine.PlainCPU, mem.Untrusted},
		{"PlainCPUM", engine.PlainCPUM, mem.Untrusted},
		{"SGXDoE", engine.Enclave, mem.Untrusted},
		{"SGXDiE", engine.Enclave, mem.EPC},
	}
}

// traceThread replays a deterministic mixed trace of batched and per-op
// accesses on one thread and returns a token checksum. The trace
// interleaves every gather/scatter API with per-op calls and sequential
// runs so that the MRU line memo is exercised across call boundaries.
func traceThread(t *engine.Thread, big, small *mem.Buffer) uint64 {
	r := rng.NewXorShift(rng.Mix(1234))
	const batch = 16
	offs := make([]int64, batch)
	offs1 := make([]int64, batch)
	deps := make([]engine.Tok, batch)
	toks := make([]engine.Tok, batch)
	casToks := make([]engine.Tok, batch)
	var sum uint64
	add := func(tok engine.Tok) { sum = sum*1099511628211 + uint64(tok) }
	slots8 := (big.Size - 8) / 8
	for round := 0; round < 40; round++ {
		// Random 8-byte gather over the big buffer, chained deps.
		var dep engine.Tok
		for i := range offs {
			offs[i] = int64(r.Uint64n(uint64(slots8))) * 8
			deps[i] = dep
		}
		add(t.LoadGather(big, 8, offs, deps, toks))
		dep = toks[batch-1]
		// Scatter stores back to the same offsets (cursor-style addrDeps).
		t.StoreScatter(big, 8, offs, toks, deps)
		// RMW increments on the small buffer (histogram idiom).
		for i := range offs {
			offs[i] = int64(r.Uint64n(uint64(small.Size/4))) * 4
		}
		t.RMWScatter(small, 4, offs, toks, nil)
		// Dependent pair chase (header -> next line).
		for i := range offs {
			o := int64(r.Uint64n(uint64(slots8-8))) * 8
			offs[i] = o
			offs1[i] = o + 64
			if offs1[i]+8 > big.Size {
				offs1[i] = o
			}
		}
		add(t.LoadChain(big, 8, offs, offs1, 1, nil, toks))
		// Latch acquire + count load (PHT insert idiom).
		for i := range offs {
			offs[i] = int64(r.Uint64n(uint64((big.Size-8)/64))) * 64
		}
		t.CASLoad(big, 4, offs, deps, casToks, toks)
		add(casToks[batch-1])
		add(toks[batch-1])
		// Per-op accesses and sequential runs between the batches, so the
		// memo state crosses API boundaries in both directions.
		off := int64(r.Uint64n(uint64(slots8))) * 8
		add(t.Load(big, off, 8, 0))
		add(t.Store(big, off, 8, 0, 0))
		add(t.CAS(big, off, 0))
		runOff := int64(r.Uint64n(uint64(slots8/2))) * 8
		add(t.LoadRun(big, runOff, 8, 32, 0))
		add(t.StoreRun(big, runOff, 8, 32, 0, 0))
		// Non-temporal streaming stores between cached accesses: the NT
		// path must keep the TLB state and the MRU line memo consistent
		// across both engine modes.
		ntOff := int64(r.Uint64n(uint64((big.Size-16*64)/64))) * 64
		add(t.StoreLinesNT(big, ntOff, 16, 0, dep))
		add(t.Load(big, ntOff, 8, 0))
		t.Work(3)
	}
	add(engine.Tok(t.Drain()))
	return sum
}

// TestGatherGoldenEquivalence enforces the fast-path invariant on the
// batched random-access APIs: under every execution setting, replaying
// the same trace on the per-op reference engine and the batched fast
// engine must produce bit-identical tokens and statistics.
func TestGatherGoldenEquivalence(t *testing.T) {
	plat := platform.XeonGold6326().Scaled(256)
	for _, s := range gatherSettings() {
		run := func(ref bool) (uint64, engine.Stats) {
			sp := mem.NewSpace(plat.Sockets)
			reg := mem.Region{Node: 0, Kind: s.kind}
			big := sp.Alloc("big", 1<<20, reg)
			small := sp.Alloc("small", 1<<12, reg)
			th := engine.NewThread(engine.Config{
				Plat: plat, Mode: s.mode, Costs: engine.DefaultSGXCosts(),
				Reference: ref,
			}, 0)
			sum := traceThread(th, &big, &small)
			return sum, th.Stats()
		}
		refSum, refStats := run(true)
		fastSum, fastStats := run(false)
		if refSum != fastSum {
			t.Errorf("%s: token checksum ref=%d fast=%d", s.name, refSum, fastSum)
		}
		if refStats != fastStats {
			t.Errorf("%s: stats differ\nref:  %+v\nfast: %+v", s.name, refStats, fastStats)
		}
	}
}

// TestGatherMatchesPerOp checks the one decomposition each gather/scatter
// API has: on both engines and under every execution setting, a bulk call
// must leave exactly the statistics and drained clock of the hand-issued
// public Load/Store/CAS sequence its doc comment states, and return the
// same tokens — so the batched APIs cannot drift from the per-op
// semantics they bundle.
func TestGatherMatchesPerOp(t *testing.T) {
	const n = 257
	r := rng.NewXorShift(7)
	offs := make([]int64, n)  // random 8-byte slots
	offs1 := make([]int64, n) // the next line (LoadChain's second hop)
	deps := make([]engine.Tok, n)
	for i := range offs {
		offs[i] = int64(r.Uint64n((1<<18)/8-8)) * 8
		offs1[i] = offs[i] + 64
		deps[i] = engine.Tok(r.Uint64n(3) * uint64(i)) // a third are ready immediately
	}
	plat := platform.XeonGold6326().Scaled(256)
	type call func(th *engine.Thread, b *mem.Buffer, toks, toks2 []engine.Tok)
	for _, api := range []struct {
		name        string
		bulk, perOp call
	}{
		{"LoadGather",
			func(th *engine.Thread, b *mem.Buffer, toks, _ []engine.Tok) {
				th.LoadGather(b, 8, offs, deps, toks)
			},
			func(th *engine.Thread, b *mem.Buffer, toks, _ []engine.Tok) {
				for i, off := range offs {
					toks[i] = th.Load(b, off, 8, deps[i])
				}
			}},
		{"StoreScatter",
			func(th *engine.Thread, b *mem.Buffer, _, _ []engine.Tok) {
				th.StoreScatter(b, 8, offs, deps, nil)
			},
			func(th *engine.Thread, b *mem.Buffer, _, _ []engine.Tok) {
				for i, off := range offs {
					th.Store(b, off, 8, deps[i], 0)
				}
			}},
		{"RMWScatter",
			func(th *engine.Thread, b *mem.Buffer, toks, _ []engine.Tok) {
				th.RMWScatter(b, 4, offs, deps, toks)
			},
			func(th *engine.Thread, b *mem.Buffer, toks, _ []engine.Tok) {
				for i, off := range offs {
					toks[i] = th.Load(b, off, 4, deps[i])
					th.Store(b, off, 4, deps[i], engine.After(toks[i], 1))
				}
			}},
		{"LoadChain",
			func(th *engine.Thread, b *mem.Buffer, toks, _ []engine.Tok) {
				th.LoadChain(b, 8, offs, offs1, 3, deps, toks)
			},
			func(th *engine.Thread, b *mem.Buffer, toks, _ []engine.Tok) {
				for i, off := range offs {
					tok := th.Load(b, off, 8, deps[i])
					toks[i] = th.Load(b, offs1[i], 8, engine.After(tok, 3))
				}
			}},
		{"CASLoad",
			func(th *engine.Thread, b *mem.Buffer, toks, toks2 []engine.Tok) {
				th.CASLoad(b, 4, offs, deps, toks, toks2)
			},
			func(th *engine.Thread, b *mem.Buffer, toks, toks2 []engine.Tok) {
				for i, off := range offs {
					toks[i] = th.CAS(b, off, deps[i])
					toks2[i] = th.Load(b, off, 4, toks[i])
				}
			}},
	} {
		for _, s := range gatherSettings() {
			for _, ref := range []bool{false, true} {
				run := func(f call) (engine.Stats, uint64, [2 * n]engine.Tok) {
					sp := mem.NewSpace(plat.Sockets)
					buf := sp.Alloc("buf", 1<<18, mem.Region{Node: 0, Kind: s.kind})
					th := engine.NewThread(engine.Config{
						Plat: plat, Mode: s.mode, Costs: engine.DefaultSGXCosts(), Reference: ref,
					}, 0)
					var toks [2 * n]engine.Tok
					// Warm a prefix so the call starts from non-trivial memo,
					// TLB and store-buffer state.
					th.StoreRun(&buf, 0, 8, 64, 0, 0)
					f(th, &buf, toks[:n], toks[n:])
					return th.Stats(), th.Drain(), toks
				}
				bs, bc, bt := run(api.bulk)
				ps, pc, pt := run(api.perOp)
				if bs != ps || bc != pc {
					t.Errorf("%s %s ref=%v: bulk call drifted from its per-op sequence (drained %d vs %d)\nbulk:   %+v\nper-op: %+v",
						api.name, s.name, ref, bc, pc, bs, ps)
				}
				if bt != pt {
					t.Errorf("%s %s ref=%v: tokens differ", api.name, s.name, ref)
				}
			}
		}
	}
}
