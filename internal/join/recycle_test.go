package join

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// TestRecycledModelsRepeat runs PHT, RHO, INL, GRACE under an EPC limit
// below its working set, and a group-by twice in one process, each time
// on a fresh Env. Every Run releases its group when it returns, so the
// second run's threads start on the cache and TLB models, store buffers,
// MLP slots and EPC rings the first run handed back, and its INL index on
// the first run's key and value words. Recycled state must be
// indistinguishable from new: cycles, stats and results repeat exactly.
func TestRecycledModelsRepeat(t *testing.T) {
	type outcome struct {
		wall   uint64
		stats  engine.Stats
		result uint64 // join matches or group-by checksum
	}
	joinRun := func(alg Algorithm, epcPages int64) func(core.Setting) outcome {
		return func(s core.Setting) outcome {
			env := spillEnv(s, false, epcPages)
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
		run  func(core.Setting) outcome
	}{
		{"PHT", joinRun(NewPHT(), 0)},
		{"RHO", joinRun(NewRHO(), 0)},
		{"INL", joinRun(NewINL(), 0)},
		{"GRACE/epc", joinRun(NewGrace(), epcHalf(4000, 16000))},
		{"agg", func(s core.Setting) outcome {
			const rows, groups = 20000, 500
			env := testEnv(s)
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
			first := r.run(s)
			if second := r.run(s); second != first {
				t.Errorf("%s on %v: second run on recycled models gave %+v, first %+v", r.name, s, second, first)
			}
		}
	}
}

// TestConcurrentCallsKeepTheirWords runs INL, a group-by and a spill
// group-by each on eight goroutines at once, every call over its own
// input, and holds each call to the digest of the same call run alone:
// a call's pooled host words (INL's index, the group-by workers' heads
// and arenas) are its own until it returns, although the pools are
// process-wide and the bench walk runs entries on several goroutines. A
// call that handed its words back before its last phase read them could
// find them refilled by another call; under -race the detector reports
// that as a race between the two.
func TestConcurrentCallsKeepTheirWords(t *testing.T) {
	// No collection may empty the pools between calls: a call that
	// finds them empty takes new words and cannot collide. One P, so
	// every call takes from and hands back to the same per-P slots, and
	// a call preempted mid-phase lets the next take what it handed back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	groupBy := func(spill bool) func(int) uint64 {
		return func(i int) uint64 {
			// One size for every call, so each fits the words any
			// other handed back; call i's payloads differ.
			const rows, groups = 40000, 2000
			env := testEnv(core.SGXDiE)
			in := env.Space.AllocU64("in", rows, env.DataRegion())
			for r := range in.D {
				in.D[r] = mem.MakeTuple(uint32(r*7919%groups+1), uint32(r*(i+1)))
			}
			run := agg.Run
			if spill {
				run = agg.SpillRun
			}
			res := run(env, []agg.Input{{Tup: in, N: rows}}, agg.Options{Threads: 2, Groups: groups})
			return res.Check ^ res.WallCycles ^ res.Stats.L1Hits<<32
		}
	}
	for _, c := range []struct {
		name string
		run  func(i int) uint64 // a digest of call i's result
	}{
		{"INL", func(i int) uint64 {
			env := testEnv(core.SGXDiE)
			build, probe := rel.GenFKPair(env.Space, 2000, 40000, env.DataRegion(), uint64(i+1))
			res, err := NewINL().Run(env, build, probe, Options{Threads: 1, Materialize: true})
			if err != nil {
				t.Error(err)
				return 0
			}
			return joinDigest(res)
		}},
		{"group-by", groupBy(false)},
		{"spill group-by", groupBy(true)},
	} {
		const calls = 8
		var alone, together [calls]uint64
		for i := range alone {
			alone[i] = c.run(i)
		}
		var wg sync.WaitGroup
		for i := range together {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i] = c.run(i)
			}()
		}
		wg.Wait()
		for i := range alone {
			if together[i] != alone[i] {
				t.Errorf("%s call %d: digest %#x beside other calls, %#x alone", c.name, i, together[i], alone[i])
			}
		}
	}
}
