package core_test

import (
	"fmt"
	"strings"
	"testing"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/kernels"
	"sgxbench/internal/platform"
	"sgxbench/internal/rel"
)

// TestPartitionPlans pins the plan each partitioning operator derives
// from the partition-size policy (L2Target, SpillTarget and
// kernels.PartitionBits), each expression as its operator's RunOn
// evaluates it: RHO's two pass widths (CrkJoin cracks their sum),
// GRACE's passes, the group-by's bits, the spill group-by's passes and
// the sort's run length. It covers three platform scales, no EPC limit
// and two small ones, and 1 and 4 threads. The loads reach the lower
// search bound, a mid-size input and past every search cap, and the
// 2-page limit holds the spill target at its 1 KiB floor. The expected
// plans were recorded from the per-operator sizing functions the policy
// replaced.
func TestPartitionPlans(t *testing.T) {
	inputs := [][2]int{{100, 10}, {1 << 20, 1 << 16}, {1 << 36, 1 << 30}} // rows (build rows for the joins), groups
	for _, tc := range []struct {
		scale, epcPages int64
		threads         int
		want            string
	}{
		{1, 0, 1, "rho1/1 rho3/2 rho9/9 grace[2] grace[5] grace[8 8 4] agg1 agg3 agg12 spill[1] spill[5] spill[8 8] run40960"},
		{1, 0, 4, "rho1/1 rho3/2 rho9/9 grace[2] grace[5] grace[8 8 4] agg1 agg3 agg12 spill[1] spill[5] spill[8 8] run40960"},
		{1, 2, 1, "rho1/1 rho3/2 rho9/9 grace[2] grace[8 5] grace[8 8 4] agg1 agg3 agg12 spill[1] spill[8 5] spill[8 8] run40960"},
		{1, 2, 4, "rho1/1 rho3/2 rho9/9 grace[2] grace[8 5] grace[8 8 4] agg1 agg3 agg12 spill[1] spill[8 5] spill[8 8] run40960"},
		{1, 64, 1, "rho1/1 rho3/2 rho9/9 grace[2] grace[8] grace[8 8 4] agg1 agg3 agg12 spill[1] spill[8] spill[8 8] run40960"},
		{1, 64, 4, "rho1/1 rho3/2 rho9/9 grace[2] grace[8 2] grace[8 8 4] agg1 agg3 agg12 spill[1] spill[8 2] spill[8 8] run40960"},
		{32, 0, 1, "rho1/1 rho5/5 rho9/9 grace[2] grace[8 2] grace[8 8 4] agg1 agg8 agg12 spill[1] spill[8 2] spill[8 8] run1280"},
		{32, 0, 4, "rho1/1 rho5/5 rho9/9 grace[2] grace[8 2] grace[8 8 4] agg1 agg8 agg12 spill[1] spill[8 2] spill[8 8] run1280"},
		{32, 2, 1, "rho1/1 rho5/5 rho9/9 grace[2] grace[8 5] grace[8 8 4] agg1 agg8 agg12 spill[1] spill[8 5] spill[8 8] run1280"},
		{32, 2, 4, "rho1/1 rho5/5 rho9/9 grace[2] grace[8 5] grace[8 8 4] agg1 agg8 agg12 spill[1] spill[8 5] spill[8 8] run1280"},
		{32, 64, 1, "rho1/1 rho5/5 rho9/9 grace[2] grace[8 2] grace[8 8 4] agg1 agg8 agg12 spill[1] spill[8 2] spill[8 8] run1280"},
		{32, 64, 4, "rho1/1 rho5/5 rho9/9 grace[2] grace[8 2] grace[8 8 4] agg1 agg8 agg12 spill[1] spill[8 2] spill[8 8] run1280"},
		{512, 0, 1, "rho1/1 rho6/5 rho9/9 grace[2] grace[8 3] grace[8 8 4] agg1 agg9 agg12 spill[1] spill[8 3] spill[8 8] run640"},
		{512, 0, 4, "rho1/1 rho6/5 rho9/9 grace[2] grace[8 3] grace[8 8 4] agg1 agg9 agg12 spill[1] spill[8 3] spill[8 8] run640"},
		{512, 2, 1, "rho1/1 rho6/5 rho9/9 grace[2] grace[8 5] grace[8 8 4] agg1 agg9 agg12 spill[1] spill[8 5] spill[8 8] run640"},
		{512, 2, 4, "rho1/1 rho6/5 rho9/9 grace[2] grace[8 5] grace[8 8 4] agg1 agg9 agg12 spill[1] spill[8 5] spill[8 8] run640"},
		{512, 64, 1, "rho1/1 rho6/5 rho9/9 grace[2] grace[8 3] grace[8 8 4] agg1 agg9 agg12 spill[1] spill[8 3] spill[8 8] run640"},
		{512, 64, 4, "rho1/1 rho6/5 rho9/9 grace[2] grace[8 3] grace[8 8 4] agg1 agg9 agg12 spill[1] spill[8 3] spill[8 8] run640"},
	} {
		env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(tc.scale), Setting: core.SGXDiE, EPCPages: tc.epcPages})
		var plan []string
		for _, in := range inputs {
			b := kernels.PartitionBits(int64(in[0])*rel.TupleBytes, env.L2Target(), 2, 18)
			plan = append(plan, fmt.Sprintf("rho%d/%d", (b+1)/2, b/2))
		}
		for _, in := range inputs {
			b := kernels.PartitionBits(int64(in[0])*rel.TupleBytes, env.SpillTarget(tc.threads), 2, 20)
			plan = append(plan, fmt.Sprintf("grace%v", kernels.SplitBits(b, 8)))
		}
		for _, in := range inputs {
			plan = append(plan, fmt.Sprintf("agg%d", kernels.PartitionBits(int64(in[1])*agg.EntryBytes, env.L2Target(), 1, 12)))
		}
		for _, in := range inputs {
			b := kernels.PartitionBits(int64(in[1])*agg.EntryBytes+int64(in[0])*4, env.SpillTarget(tc.threads), 1, 16)
			plan = append(plan, fmt.Sprintf("spill%v", kernels.SplitBits(b, 8)))
		}
		plan = append(plan, fmt.Sprintf("run%d", env.L2Target()/rel.TupleBytes))
		if got := strings.Join(plan, " "); got != tc.want {
			t.Errorf("Scaled(%d), EPC %d pages, %d threads:\n got %s\nwant %s", tc.scale, tc.epcPages, tc.threads, got, tc.want)
		}
	}
}
