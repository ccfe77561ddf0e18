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
// line (6 slots), past the inline slots (8) and into overflow chains of
// several hops. One extra key repeats dupHotRepeats times.
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
// TestJoinDigestsPinned. A change to how the joins hold their tables
// in host memory must leave all of them unchanged; a change that is
// meant to move simulated numbers regenerates them (the failure message
// prints each new value).
var pinnedJoinDigests = map[string]uint64{
	"PHT/fk/Plain CPU/opt=false/T=1":      0x2cd237d62fb3d1f6,
	"PHT/fk/Plain CPU/opt=false/T=2":      0x234c7391acb94cb4,
	"PHT/fk/Plain CPU/opt=true/T=1":       0x9f9f19ed562dc025,
	"PHT/fk/Plain CPU/opt=true/T=2":       0x9fd3ad9fc57ba827,
	"PHT/fk/SGX DiE/opt=false/T=1":        0x92935dffd779671e,
	"PHT/fk/SGX DiE/opt=false/T=2":        0x8987b389941cfa3c,
	"PHT/fk/SGX DiE/opt=true/T=1":         0xfe414299bb117d6b,
	"PHT/fk/SGX DiE/opt=true/T=2":         0xa59047ba52e9b5c9,
	"PHT/dup/Plain CPU/opt=false/T=1":     0x38c16499dc87403b,
	"PHT/dup/Plain CPU/opt=false/T=2":     0x64c53f7547654317,
	"PHT/dup/Plain CPU/opt=true/T=1":      0x8243a3528ea17bd0,
	"PHT/dup/Plain CPU/opt=true/T=2":      0x6cbe879ab95040e7,
	"PHT/dup/SGX DiE/opt=false/T=1":       0xa4169b93c92e3cd1,
	"PHT/dup/SGX DiE/opt=false/T=2":       0xeee02776421e0756,
	"PHT/dup/SGX DiE/opt=true/T=1":        0xe48afe5d4df6357c,
	"PHT/dup/SGX DiE/opt=true/T=2":        0xdff7709f8a76cf6b,
	"RHO/fk/Plain CPU/opt=false/T=1":      0x916feb27375d077c,
	"RHO/fk/Plain CPU/opt=false/T=2":      0xc209001ec1c57a6f,
	"RHO/fk/Plain CPU/opt=true/T=1":       0x6d3805d5857d77c9,
	"RHO/fk/Plain CPU/opt=true/T=2":       0x2cfac3edc95b40d3,
	"RHO/fk/SGX DiE/opt=false/T=1":        0x8a00f61f36fcabd1,
	"RHO/fk/SGX DiE/opt=false/T=2":        0xc94d5eb23c2a734,
	"RHO/fk/SGX DiE/opt=true/T=1":         0x3cee11bbf38334a2,
	"RHO/fk/SGX DiE/opt=true/T=2":         0xdf1e4e89785d6e72,
	"RHO/dup/Plain CPU/opt=false/T=1":     0x95d24c08ffc0cef0,
	"RHO/dup/Plain CPU/opt=false/T=2":     0xa1c03bac9ddb66da,
	"RHO/dup/Plain CPU/opt=true/T=1":      0x59a1cbf48af0eac9,
	"RHO/dup/Plain CPU/opt=true/T=2":      0xa3e3eb7fa7aa62e0,
	"RHO/dup/SGX DiE/opt=false/T=1":       0x8d709e3b73646733,
	"RHO/dup/SGX DiE/opt=false/T=2":       0x5ad762d3a429d82c,
	"RHO/dup/SGX DiE/opt=true/T=1":        0x12df04b43f40efa2,
	"RHO/dup/SGX DiE/opt=true/T=2":        0x484ddfda3c4a3475,
	"CrkJoin/fk/Plain CPU/opt=false/T=1":  0xdfa10de6023fc279,
	"CrkJoin/fk/Plain CPU/opt=false/T=2":  0x84bb5bc4357b9065,
	"CrkJoin/fk/Plain CPU/opt=true/T=1":   0x55c82793c3995828,
	"CrkJoin/fk/Plain CPU/opt=true/T=2":   0xdd80b7c8c6c8fcd2,
	"CrkJoin/fk/SGX DiE/opt=false/T=1":    0xdecfa48a57dafabe,
	"CrkJoin/fk/SGX DiE/opt=false/T=2":    0xd42562fc26b9ff15,
	"CrkJoin/fk/SGX DiE/opt=true/T=1":     0xf99507a47da49fed,
	"CrkJoin/fk/SGX DiE/opt=true/T=2":     0x2d2b1bba26db0be9,
	"CrkJoin/dup/Plain CPU/opt=false/T=1": 0x34c571947b2e0de,
	"CrkJoin/dup/Plain CPU/opt=false/T=2": 0xaa3da18c920aed0f,
	"CrkJoin/dup/Plain CPU/opt=true/T=1":  0x201e159fc7e8b79c,
	"CrkJoin/dup/Plain CPU/opt=true/T=2":  0xfce19ff40080f438,
	"CrkJoin/dup/SGX DiE/opt=false/T=1":   0x6b2ed28f6b49fe01,
	"CrkJoin/dup/SGX DiE/opt=false/T=2":   0x92cf73565ffaa71f,
	"CrkJoin/dup/SGX DiE/opt=true/T=1":    0x275473814aee9fe,
	"CrkJoin/dup/SGX DiE/opt=true/T=2":    0xd93495293eed9c7,
	"GRACE/fk/Plain CPU/opt=false/T=1":    0xe57bb9c542b00a,
	"GRACE/fk/Plain CPU/opt=false/T=2":    0x4c4bc191aa3b77a2,
	"GRACE/fk/Plain CPU/opt=true/T=1":     0xb719878a389b20e9,
	"GRACE/fk/Plain CPU/opt=true/T=2":     0xc4af76e50c09cdb5,
	"GRACE/fk/SGX DiE/opt=false/T=1":      0x57c10b3cc257db88,
	"GRACE/fk/SGX DiE/opt=false/T=2":      0xab76a6f65777ed49,
	"GRACE/fk/SGX DiE/opt=true/T=1":       0xeeafd610695ab9bf,
	"GRACE/fk/SGX DiE/opt=true/T=2":       0x888e8d89f6e2dcbd,
	"GRACE/dup/Plain CPU/opt=false/T=1":   0xf3ef817a0b524911,
	"GRACE/dup/Plain CPU/opt=false/T=2":   0x9411863b0a75797b,
	"GRACE/dup/Plain CPU/opt=true/T=1":    0x419055e6439b957e,
	"GRACE/dup/Plain CPU/opt=true/T=2":    0x697a5382a404e518,
	"GRACE/dup/SGX DiE/opt=false/T=1":     0x452b35ff2ed887cd,
	"GRACE/dup/SGX DiE/opt=false/T=2":     0xedf953f4aefe74dc,
	"GRACE/dup/SGX DiE/opt=true/T=1":      0xd1c9e34f12304f20,
	"GRACE/dup/SGX DiE/opt=true/T=2":      0x56df7fb8e9507fac,
	"INL/fk/Plain CPU/opt=false/T=1":      0xb5a947f4d89b0e4,
	"INL/fk/Plain CPU/opt=false/T=2":      0x929d8374bbf26f75,
	"INL/fk/SGX DiE/opt=false/T=1":        0xbc599de844a6a0c3,
	"INL/fk/SGX DiE/opt=false/T=2":        0x8aa73227ebc764c3,
	"INL/dup/Plain CPU/opt=false/T=1":     0x422dc3a987c0bc3f,
	"INL/dup/Plain CPU/opt=false/T=2":     0xfe767189086eeba8,
	"INL/dup/SGX DiE/opt=false/T=1":       0xe533b2dba4c5d9b2,
	"INL/dup/SGX DiE/opt=false/T=2":       0xde7bfe7fc783d5cd,
	"MWAY/fk/Plain CPU/opt=false/T=1":     0x38e93296f4d67a91,
	"MWAY/fk/Plain CPU/opt=false/T=2":     0xbeff9cf51b5e562a,
	"MWAY/fk/SGX DiE/opt=false/T=1":       0xc2196dd8c2627cb2,
	"MWAY/fk/SGX DiE/opt=false/T=2":       0x870ea5d6eeb5b02f,
	"MWAY/dup/Plain CPU/opt=false/T=1":    0x696af34ffa230e4f,
	"MWAY/dup/Plain CPU/opt=false/T=2":    0xe4c0f895c3227b03,
	"MWAY/dup/SGX DiE/opt=false/T=1":      0xafc14c414da3c90c,
	"MWAY/dup/SGX DiE/opt=false/T=2":      0x4afa69d0ed93bc34,
	"GRACE/fk/SGX DiE/opt=true/T=2/epc":   0x56ab13d7e5529291,
}

// TestJoinDigestsPinned pins every join, scalar and optimized, under the
// plain and the enclave setting, over a foreign-key build and a
// duplicate-heavy one, single-threaded with materialized output and
// two-threaded counting only (TestGoldenRHOMaterialized and
// TestGoldenPHTMaterialized cover multi-threaded materialization). One
// more GRACE case runs under an EPC limit, two-threaded and
// materializing, so the drain into the spill region is pinned too.
func TestJoinDigestsPinned(t *testing.T) {
	check := func(label string, alg Algorithm, env *core.Env, r, s *rel.Relation, opt Options) {
		res, err := alg.Run(env, r, s, opt)
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
	for _, alg := range []Algorithm{NewPHT(), NewRHO(), NewCrk(), NewGrace(), NewINL(), NewMWAY()} {
		opts := []bool{false, true}
		if alg.Name() == "INL" || alg.Name() == "MWAY" {
			opts = opts[:1] // neither reads Options.Optimized
		}
		for _, build := range []string{"fk", "dup"} {
			for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
				for _, optimized := range opts {
					for _, threads := range []int{1, 2} {
						label := fmt.Sprintf("%s/%s/%s/opt=%v/T=%d", alg.Name(), build, setting, optimized, threads)
						env := testEnv(setting)
						var r, s *rel.Relation
						if build == "fk" {
							r, s = rel.GenFKPair(env.Space, 2000, 8000, env.DataRegion(), 31)
						} else {
							r, s = genDupPair(env, 3000, 31)
						}
						check(label, alg, env, r, s, Options{Threads: threads, Optimized: optimized, Materialize: threads == 1})
					}
				}
			}
		}
	}
	env := spillEnv(core.SGXDiE, false, epcHalf(2000, 8000))
	r, s := rel.GenFKPair(env.Space, 2000, 8000, env.DataRegion(), 31)
	check("GRACE/fk/SGX DiE/opt=true/T=2/epc", NewGrace(), env, r, s, Options{Threads: 2, Optimized: true, Materialize: true})
}
