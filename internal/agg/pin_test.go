package agg

import (
	"fmt"
	"hash/fnv"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/kernels"
)

// aggDigest is FNV-1a over everything a group-by run reports that the
// host layout of its worker arena or staging buffers could disturb.
func aggDigest(res *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %#x %d %+v %v %v", res.Rows, res.Groups, res.Check, res.WallCycles, res.Stats, res.PartStart, res.PartGroups)
	return h.Sum64()
}

// pinnedAggDigests holds the digest of every case of
// TestAggDigestsPinned; the failure message prints each new value.
var pinnedAggDigests = map[string]uint64{
	"run/Plain CPU/groups=700":    0x3ce9326e17d241fe,
	"run/Plain CPU/groups=40":     0xc41b74019b68e7d7,
	"run/Plain CPU/groups=0":      0xc5456ebb0331a500,
	"run/SGX DiE/groups=700":      0x382335b8658eb014,
	"run/SGX DiE/groups=40":       0x56787b63405c30ae,
	"run/SGX DiE/groups=0":        0xb3a1d083e7021a1,
	"spill/Plain CPU/groups=700":  0x9aacfded670e8b49,
	"spill/Plain CPU/groups=40":   0x9aacfded670e8b49,
	"spill/Plain CPU/groups=0":    0x61d4abc37cf03d4d,
	"spill/SGX DiE/groups=700":    0xdedaf89eceacc60,
	"spill/SGX DiE/groups=40":     0xdedaf89eceacc60,
	"spill/SGX DiE/groups=0":      0x1d3bfff2ea354e98,
	"direct/Plain CPU/groups=700": 0x7b0e575cf8b25201,
	"direct/Plain CPU/groups=40":  0x7b0e575cf8b25201,
	"direct/Plain CPU/groups=0":   0x7b0e575cf8b25201,
	"direct/SGX DiE/groups=700":   0xfaf5e706fde81ed7,
	"direct/SGX DiE/groups=40":    0xfaf5e706fde81ed7,
	"direct/SGX DiE/groups=0":     0xfaf5e706fde81ed7,
	"spill/epc":                   0xc38f5f39b4990841,
}

// TestAggDigestsPinned pins the three group-by operators with the
// Groups hint exact, under-stated (a partition then holds more groups
// than the hint) and absent, plus an EPC-limited spill run that drains
// its input and partitions in two passes, so both staging buffers are
// written.
func TestAggDigestsPinned(t *testing.T) {
	const n, groups = 12000, 700
	ops := []struct {
		name string
		run  func(*core.Env, []Input, Options) *Result
	}{{"run", Run}, {"spill", SpillRun}, {"direct", DirectRun}}
	check := func(label string, res *Result, ins []Input) {
		t.Helper()
		if want := Reference(ins, ByKey); res.Groups != len(want) {
			t.Errorf("%s: groups=%d oracle=%d", label, res.Groups, len(want))
		}
		if got, want := aggDigest(res), pinnedAggDigests[label]; got != want {
			t.Errorf("%q: %#x, // pinned %#x", label, got, want)
		}
	}
	for _, op := range ops {
		for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
			for _, hint := range []int{groups, 40, 0} {
				label := fmt.Sprintf("%s/%s/groups=%d", op.name, setting, hint)
				env := spillTestEnv(setting, false, 0)
				ins := []Input{{Tup: genTuples(env, n, groups, false, 21), N: n}}
				check(label, op.run(env, ins, Options{Threads: 2, Sel: ByKey, Groups: hint}), ins)
			}
		}
	}

	const bigN, bigGroups, pages = 40000, 8000, 4
	env := spillTestEnv(core.SGXDiE, false, pages)
	load := int64(bigGroups)*EntryBytes + int64(bigN)*4
	if p := kernels.SplitBits(kernels.PartitionBits(load, env.SpillTarget(2), 1, 16), 8); len(p) < 2 {
		t.Fatalf("EPC-limited case plans %d pass(es), want 2", len(p))
	}
	ins := []Input{{Tup: genTuples(env, bigN, bigGroups, true, 21), N: bigN}}
	check("spill/epc", SpillRun(env, ins, Options{Threads: 2, Sel: ByKey, Groups: bigGroups}), ins)
}
