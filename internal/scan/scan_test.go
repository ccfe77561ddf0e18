package scan

import (
	"testing"
	"testing/quick"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
)

func scanEnv(s core.Setting, scale int64) *core.Env {
	return core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(scale), Setting: s})
}

// TestSWARAgainstScalar property-tests the SWAR range kernel against the
// obvious byte loop.
func TestSWARAgainstScalar(t *testing.T) {
	f := func(word uint64, lo, hi uint8) bool {
		m := rangeMask(word, broadcast(lo), broadcast(hi))
		bits := packMask(m)
		for j := 0; j < 8; j++ {
			v := uint8(word >> (8 * j))
			want := v >= lo && v <= hi
			if (bits&(1<<j) != 0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestScanCorrectness checks match counts against the oracle across
// settings, thread counts and output kinds.
func TestScanCorrectness(t *testing.T) {
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE, core.SGXDoE} {
		for _, threads := range []int{1, 4, 16} {
			for _, rowIDs := range []bool{false, true} {
				env := scanEnv(setting, 256)
				col := env.Space.AllocU8("col", 1<<16+13, env.DataRegion())
				GenColumn(col, 5)
				pred := Predicate{Lo: 10, Hi: 90}
				want := ReferenceCount(col, pred)
				res := Run(env, col, Options{Threads: threads, Pred: pred, RowIDs: rowIDs})
				if res.Matches != want {
					t.Errorf("%s threads=%d rowIDs=%v: matches=%d want %d",
						setting, threads, rowIDs, res.Matches, want)
				}
			}
		}
	}
}

// TestGatherCorrectness checks the filter→gather plan end to end: the
// row-id scan's ids drive a gather whose checksum and materialized
// values must match the oracle, in every setting, shuffled or not.
func TestGatherCorrectness(t *testing.T) {
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		for _, shuffle := range []bool{false, true} {
			env := scanEnv(setting, 256)
			col := env.Space.AllocU8("col", 1<<16+13, env.DataRegion())
			GenColumn(col, 5)
			sc := Run(env, col, Options{Threads: 4, Pred: Predicate{Lo: 10, Hi: 90}, RowIDs: true})
			n := int(sc.Matches)
			if shuffle {
				ShuffleIDs(sc.IDs, n, 3)
			}
			want := referenceGatherSum(col, sc.IDs, n)
			res := Gather(env, col, sc.IDs, n, GatherOptions{Threads: 4})
			if res.Sum != want {
				t.Errorf("%s shuffle=%v: sum=%d want %d", setting, shuffle, res.Sum, want)
			}
			for i := 0; i < n; i++ {
				if res.Out.D[i] != col.D[sc.IDs.D[i]] {
					t.Fatalf("%s: gathered value %d differs", setting, i)
				}
			}
		}
	}
}

// TestGoldenGatherEquivalence enforces the engine's fast-path invariant
// on the gather stage: under every execution setting the batched fast
// path must produce bit-identical output and simulated statistics to the
// per-op reference path.
func TestGoldenGatherEquivalence(t *testing.T) {
	allSettings := []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
	for _, setting := range allSettings {
		run := func(ref bool) (*GatherResult, engine.Stats) {
			env := core.NewEnv(core.Options{
				Plat:      platform.XeonGold6326().Scaled(256),
				Setting:   setting,
				Reference: ref,
			})
			col := env.Space.AllocU8("col", 1<<20+777, env.DataRegion())
			GenColumn(col, 42)
			sc := Run(env, col, Options{Threads: 2, Pred: Predicate{Lo: 20, Hi: 200}, RowIDs: true})
			n := int(sc.Matches)
			ShuffleIDs(sc.IDs, n, 7)
			res := Gather(env, col, sc.IDs, n, GatherOptions{Threads: 2})
			var agg engine.Stats
			for _, p := range res.Phases {
				agg.Add(p.Agg)
			}
			return res, agg
		}
		refRes, refAgg := run(true)
		fastRes, fastAgg := run(false)
		if refRes.Sum != fastRes.Sum {
			t.Errorf("%s: sum ref=%d fast=%d", setting, refRes.Sum, fastRes.Sum)
		}
		if refRes.WallCycles != fastRes.WallCycles {
			t.Errorf("%s: wall cycles ref=%d fast=%d", setting, refRes.WallCycles, fastRes.WallCycles)
		}
		if refAgg != fastAgg {
			t.Errorf("%s: stats differ\nref:  %+v\nfast: %+v", setting, refAgg, fastAgg)
		}
		for i := range refRes.Out.D {
			if refRes.Out.D[i] != fastRes.Out.D[i] {
				t.Fatalf("%s: gathered byte %d differs", setting, i)
			}
		}
	}
}

// TestScanResultReuse checks that pre-allocated result buffers produce
// the same matches as fresh ones (and are actually reused).
func TestScanResultReuse(t *testing.T) {
	env := scanEnv(core.PlainCPU, 256)
	col := env.Space.AllocU8("col", 1<<16, env.DataRegion())
	GenColumn(col, 5)
	pred := Predicate{Lo: 10, Hi: 90}
	ids := env.Space.AllocU64("ids.reuse", col.Len()+64, env.DataRegion())
	a := Run(env, col, Options{Threads: 2, Pred: pred, RowIDs: true, IDs: ids})
	if a.IDs != ids {
		t.Fatalf("pre-allocated IDs buffer was not reused")
	}
	b := Run(env, col, Options{Threads: 2, Pred: pred, RowIDs: true})
	if a.Matches != b.Matches {
		t.Errorf("reused buffer changed matches: %d vs %d", a.Matches, b.Matches)
	}
	for i := 0; i < int(a.Matches); i++ {
		if a.IDs.D[i] != b.IDs.D[i] {
			t.Fatalf("row id %d differs between reused and fresh buffers", i)
		}
	}
}

// TestScanShapeFig13 checks the single-threaded size sweep: inside the
// cache DiE == plain; outside, the enclave costs only a few percent.
func TestScanShapeFig13(t *testing.T) {
	run := func(setting core.Setting, bytes int) float64 {
		env := scanEnv(setting, 32)
		col := env.Space.AllocU8("col", bytes, env.DataRegion())
		GenColumn(col, 7)
		// Warm-up pass, then measured passes (the paper scans the data
		// 1000 times after 10 warm-ups; a handful is enough here).
		Run(env, col, Options{Threads: 1, Pred: Predicate{Lo: 0, Hi: 127}})
		res := Run(env, col, Options{Threads: 1, Pred: Predicate{Lo: 0, Hi: 127}, Passes: 4})
		return res.Throughput(env)
	}
	small := 16 << 10 // cache-resident at scale 32
	big := 8 << 20    // DRAM-resident
	rSmall := run(core.SGXDiE, small) / run(core.PlainCPU, small)
	rBig := run(core.SGXDiE, big) / run(core.PlainCPU, big)
	t.Logf("scan DiE/plain: in-cache=%.3f out-of-cache=%.3f", rSmall, rBig)
	if rSmall < 0.93 {
		t.Errorf("in-cache scan should have ~no overhead, got %.3f", rSmall)
	}
	if rBig < 0.90 || rBig > 1.02 {
		t.Errorf("out-of-cache scan should be ~3%% slower, got %.3f", rBig)
	}
	// DoE out-of-cache: no memory encryption, ~native throughput.
	rDoE := run(core.SGXDoE, big) / run(core.PlainCPU, big)
	if rDoE < 0.97 {
		t.Errorf("DoE scan should be ~native, got %.3f", rDoE)
	}
}

// TestScanShapeFig14 checks thread scaling: throughput grows with
// threads and hits the same bandwidth roof in and out of the enclave.
func TestScanShapeFig14(t *testing.T) {
	run := func(setting core.Setting, threads int) float64 {
		env := scanEnv(setting, 32)
		col := env.Space.AllocU8("col", 64<<20, env.DataRegion())
		GenColumn(col, 9)
		res := Run(env, col, Options{Threads: threads, Pred: Predicate{Lo: 0, Hi: 127}})
		return res.Throughput(env)
	}
	var lastPlain, lastDie float64
	for _, th := range []int{1, 4, 16} {
		p, d := run(core.PlainCPU, th), run(core.SGXDiE, th)
		t.Logf("threads=%2d plain=%.1f GiB/s die=%.1f GiB/s", th, p/(1<<30), d/(1<<30))
		if p < lastPlain || d < lastDie {
			t.Errorf("throughput should not decrease with threads")
		}
		lastPlain, lastDie = p, d
	}
	if lastDie < 0.90*lastPlain {
		t.Errorf("16-thread DiE scan (%.1f) should be within 10%% of plain (%.1f)",
			lastDie/(1<<30), lastPlain/(1<<30))
	}
	// The 16-thread scan must be bandwidth-bound (near the socket roof).
	env := scanEnv(core.PlainCPU, 32)
	roof := env.Plat.SocketDRAMBW * env.Plat.FreqHz
	if lastPlain < 0.7*roof {
		t.Errorf("16-thread scan (%.2e B/s) should approach the bandwidth roof (%.2e B/s)", lastPlain, roof)
	}
}

// TestScanShapeFig15 checks that increasing the write rate (selectivity
// of the row-id scan) does not penalize the enclave more than native.
func TestScanShapeFig15(t *testing.T) {
	run := func(setting core.Setting, sel uint8) float64 {
		env := scanEnv(setting, 32)
		col := env.Space.AllocU8("col", 32<<20, env.DataRegion())
		GenColumn(col, 11)
		res := Run(env, col, Options{Threads: 16, Pred: Predicate{Lo: 0, Hi: sel}, RowIDs: true})
		return res.Throughput(env)
	}
	for _, sel := range []uint8{2, 127, 255} {
		ratio := run(core.SGXDiE, sel) / run(core.PlainCPU, sel)
		t.Logf("selectivity %.2f: DiE/plain=%.3f", (float64(sel)+1)/256, ratio)
		if ratio < 0.85 {
			t.Errorf("write rate %.2f: enclave overhead too high (%.3f)", (float64(sel)+1)/256, ratio)
		}
	}
}

// referenceGatherSum is the gather oracle: the checksum of col at ids[:n].
func referenceGatherSum(col *mem.U8Buf, ids *mem.U64Buf, n int) uint64 {
	var sum uint64
	for i := 0; i < n; i++ {
		sum += uint64(col.D[ids.D[i]])
	}
	return sum
}

// TestRemoteScan scans a node-0 column from threads on node 1 (the
// cross-NUMA setup of Fig 16): only a remote run moves bytes over UPI, a
// single remote thread is slower than a local one in and out of the
// enclave, the enclave keeps about 77 % of the plain remote throughput,
// 16 remote threads hit the UPI bandwidth roof, and the fast and
// reference engine paths agree on every remote statistic.
func TestRemoteScan(t *testing.T) {
	run := func(setting core.Setting, node, threads int, ref bool) *Result {
		env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: setting, Reference: ref})
		col := env.Space.AllocU8("col", 16<<20, env.DataRegion())
		GenColumn(col, 13)
		g := env.NewGroup(threads, func(int) int { return node })
		defer g.Release()
		return RunOn(env, g, col, Options{Pred: Predicate{Lo: 0, Hi: 127}})
	}
	tput := map[core.Setting][2]float64{}
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		env := scanEnv(setting, 32)
		var tp [2]float64
		for node := range tp {
			res := run(setting, node, 1, false)
			if remote := res.Stats.UPIBytes > 0; remote != (node == 1) {
				t.Errorf("%s node %d: UPIBytes = %d", setting, node, res.Stats.UPIBytes)
			}
			tp[node] = res.Throughput(env)
		}
		t.Logf("%s: local %.0f B/s, remote %.0f B/s", setting, tp[0], tp[1])
		if tp[1] >= tp[0] {
			t.Errorf("%s: remote scan (%.0f B/s) not slower than local (%.0f B/s)", setting, tp[1], tp[0])
		}
		tput[setting] = tp

		res := run(setting, 1, 16, false)
		ps := res.Phases[0]
		if roof := uint64(float64(res.Stats.UPIBytes) / env.Plat.UPIBW); !ps.BWBound || ps.WallCycles != roof {
			t.Errorf("%s 16 remote threads: wall %d (bandwidth-bound %v), want the UPI roof %d", setting, ps.WallCycles, ps.BWBound, roof)
		}
	}
	if r := tput[core.SGXDiE][1] / tput[core.PlainCPU][1]; r < 0.74 || r > 0.80 {
		t.Errorf("remote DiE/plain throughput = %.3f, want 0.74-0.80 (Fig 16: 77 %%)", r)
	}
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		if fast, ref := run(setting, 1, 1, false), run(setting, 1, 1, true); fast.Stats != ref.Stats {
			t.Errorf("%s remote: stats differ\nref:  %+v\nfast: %+v", setting, ref.Stats, fast.Stats)
		}
	}
}
