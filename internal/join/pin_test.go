package join

import (
	"fmt"
	"hash/fnv"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
	"sgxbench/internal/rng"
)

// dupRepeats is the copy count per build key of the duplicate-heavy
// build, cycled over the keys: it fills PHT buckets past the header
// line (6 slots), past the inline slots (8) and past 32 entries, where
// the overflow-chain charge wraps around. One extra key repeats
// dupHotRepeats times.
var dupRepeats = []int{1, 3, 7, 9, 33, 40}

const (
	dupKeys       = 240
	dupHotRepeats = 1000
)

// genDupPair builds the duplicate-heavy build (keys 1..dupKeys+1 with
// dupRepeats copies each, shuffled; payload = row) and a probe whose
// keys are uniform over a slightly wider domain, so some probes miss.
func genDupPair(env *core.Env, nProbe int, seed uint64) (build, probe *rel.Relation) {
	var keys []uint32
	for k := 1; k <= dupKeys; k++ {
		for c := 0; c < dupRepeats[k%len(dupRepeats)]; c++ {
			keys = append(keys, uint32(k))
		}
	}
	for c := 0; c < dupHotRepeats; c++ {
		keys = append(keys, dupKeys+1)
	}
	r := rng.NewXorShift(rng.Mix(seed))
	for i := len(keys) - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	build = rel.Alloc(env.Space, "R", len(keys), env.DataRegion())
	for i, k := range keys {
		build.Tup.D[i] = mem.MakeTuple(k, uint32(i))
	}
	probe = rel.Alloc(env.Space, "S", nProbe, env.DataRegion())
	for i := range probe.Tup.D {
		probe.Tup.D[i] = mem.MakeTuple(uint32(r.Uint64n(dupKeys+20))+1, uint32(i))
	}
	return build, probe
}

// joinDigest is FNV-1a over everything a join run reports that the
// host layout of its tables could disturb: matches, cycles, the full
// engine stats and every materialized row in thread and append order.
func joinDigest(res *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %+v\n", res.Matches, res.WallCycles, res.BuildCycles, res.ProbeCycles, res.Stats)
	for i, rows := range res.Output {
		fmt.Fprintf(h, "out %d %d\n", i, len(rows))
		for _, r := range rows {
			fmt.Fprintf(h, "%x ", r)
		}
	}
	return h.Sum64()
}

// pinnedJoinDigests holds the digest of every case of
// TestJoinDigestsPinned. A change to how PHT or RHO hold their tables
// in host memory must leave all of them unchanged; a change that is
// meant to move simulated numbers regenerates them (the failure message
// prints each new value).
var pinnedJoinDigests = map[string]uint64{
	"PHT/fk/Plain CPU/opt=false/T=1":  0x2cd237d62fb3d1f6,
	"PHT/fk/Plain CPU/opt=false/T=2":  0x234c7391acb94cb4,
	"PHT/fk/Plain CPU/opt=true/T=1":   0x9f9f19ed562dc025,
	"PHT/fk/Plain CPU/opt=true/T=2":   0x9fd3ad9fc57ba827,
	"PHT/fk/SGX DiE/opt=false/T=1":    0x92935dffd779671e,
	"PHT/fk/SGX DiE/opt=false/T=2":    0x8987b389941cfa3c,
	"PHT/fk/SGX DiE/opt=true/T=1":     0xfe414299bb117d6b,
	"PHT/fk/SGX DiE/opt=true/T=2":     0xa59047ba52e9b5c9,
	"PHT/dup/Plain CPU/opt=false/T=1": 0x44a1478866e6dc75,
	"PHT/dup/Plain CPU/opt=false/T=2": 0xe0a5b97ab0ccee20,
	"PHT/dup/Plain CPU/opt=true/T=1":  0xbee7a3ce41be6d3e,
	"PHT/dup/Plain CPU/opt=true/T=2":  0x29924d4077247463,
	"PHT/dup/SGX DiE/opt=false/T=1":   0x2f58f51daa4e2487,
	"PHT/dup/SGX DiE/opt=false/T=2":   0x165bf04472e85146,
	"PHT/dup/SGX DiE/opt=true/T=1":    0x311a02b5a90d87e5,
	"PHT/dup/SGX DiE/opt=true/T=2":    0x9a16a7adb15b28e2,
	"RHO/fk/Plain CPU/opt=false/T=1":  0x916feb27375d077c,
	"RHO/fk/Plain CPU/opt=false/T=2":  0xc209001ec1c57a6f,
	"RHO/fk/Plain CPU/opt=true/T=1":   0x6d3805d5857d77c9,
	"RHO/fk/Plain CPU/opt=true/T=2":   0x2cfac3edc95b40d3,
	"RHO/fk/SGX DiE/opt=false/T=1":    0x8a00f61f36fcabd1,
	"RHO/fk/SGX DiE/opt=false/T=2":    0xc94d5eb23c2a734,
	"RHO/fk/SGX DiE/opt=true/T=1":     0x3cee11bbf38334a2,
	"RHO/fk/SGX DiE/opt=true/T=2":     0xdf1e4e89785d6e72,
	"RHO/dup/Plain CPU/opt=false/T=1": 0x4c02acbbb916f5b0,
	"RHO/dup/Plain CPU/opt=false/T=2": 0x473ac0e7224337fc,
	"RHO/dup/Plain CPU/opt=true/T=1":  0x1bcfe404c8c72d27,
	"RHO/dup/Plain CPU/opt=true/T=2":  0xddaac95e4af14eed,
	"RHO/dup/SGX DiE/opt=false/T=1":   0xdd04a34a15274c21,
	"RHO/dup/SGX DiE/opt=false/T=2":   0xeb2dafe5021a1417,
	"RHO/dup/SGX DiE/opt=true/T=1":    0xa83f42951e8f27dd,
	"RHO/dup/SGX DiE/opt=true/T=2":    0x9ec3575c149c0b2b,
}

// TestJoinDigestsPinned pins PHT and RHO, scalar and optimized, under
// the plain and the enclave setting, over a foreign-key build and a
// duplicate-heavy one, single-threaded with materialized output and
// two-threaded counting only (chunk-mode output above one thread is
// address-nondeterministic by design; see outWriter).
func TestJoinDigestsPinned(t *testing.T) {
	for _, alg := range []Algorithm{NewPHT(), NewRHO()} {
		for _, build := range []string{"fk", "dup"} {
			for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
				for _, optimized := range []bool{false, true} {
					for _, threads := range []int{1, 2} {
						label := fmt.Sprintf("%s/%s/%s/opt=%v/T=%d", alg.Name(), build, setting, optimized, threads)
						env := testEnv(setting)
						var r, s *rel.Relation
						if build == "fk" {
							r, s = rel.GenFKPair(env.Space, 2000, 8000, env.DataRegion(), 31)
						} else {
							r, s = genDupPair(env, 3000, 31)
						}
						res, err := alg.Run(env, r, s, Options{Threads: threads, Optimized: optimized, Materialize: threads == 1})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if want := rel.ReferenceJoinCount(r, s); res.Matches != want {
							t.Errorf("%s: matches=%d want %d", label, res.Matches, want)
						}
						if got, want := joinDigest(res), pinnedJoinDigests[label]; got != want {
							t.Errorf("%q: %#x, // pinned %#x", label, got, want)
						}
					}
				}
			}
		}
	}
}
