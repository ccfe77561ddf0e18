package serve

import (
	"math"
	"strings"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/sgx"
)

// TestClockNeverWraps: a delay that would carry the virtual clock past
// 2^64 cycles fails the replay or the config instead of wrapping into a
// short delay, a past event or a latency of 2^64-1.
func TestClockNeverWraps(t *testing.T) {
	w := wheelTestWorkload(core.SGXDiE)
	base := Config{Clients: 2, Workers: 1, RequestsPerClient: 3, Seed: 7}
	cases := []struct {
		name string
		mut  func(c *Config)
		want string
	}{
		{"deadline past the end of the clock", func(c *Config) { c.DeadlineCycles = math.MaxUint64 }, "clock wrapped"},
		{"poisson gap product", func(c *Config) {
			c.Arrival = &ArrivalPlan{Kind: ArrivalPoisson, MeanGapCycles: 1 << 50}
		}, "MeanGapCycles"},
		{"rebuild cost product", func(c *Config) {
			fc := sgx.DefaultFaultCosts()
			fc.RebuildPage = 1 << 62
			c.Fault = &FaultPlan{Seed: 11, CrashInterval: 100_000, RebuildPages: 4, Costs: fc}
		}, "clock wrapped"},
		{"crash teardown past the end of the clock", func(c *Config) {
			fc := sgx.DefaultFaultCosts()
			fc.Teardown = math.MaxUint64
			c.Fault = &FaultPlan{Seed: 11, CrashInterval: 100_000, RebuildPages: 4, Costs: fc}
		}, "clock wrapped"},
		{"abort detection past the end of the clock", func(c *Config) {
			fc := sgx.DefaultFaultCosts()
			// Wraps to about 1 000 cycles before the attempt's own end,
			// which is still at or after the event being handled.
			fc.AbortDetect = math.MaxUint64 - 1000
			c.Fault = &FaultPlan{Seed: 1, FailPct: 100, Costs: fc}
		}, "clock wrapped"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		res, err := w.Simulate(c)
		if err == nil {
			t.Errorf("%s: replay ran (p99 %d, %d failed)", tc.name, res.P99, res.Failed)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The largest accepted gap still draws without overflow.
	p := &ArrivalPlan{Kind: ArrivalPoisson, MeanGapCycles: math.MaxUint64 / maxGapQ16}
	if err := p.validate(); err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	for n := 0; n < 64; n++ {
		if g := p.gap(7, 0, n*8); g > math.MaxUint64/2 {
			t.Errorf("%s: draw %d is %d, more than the largest table factor allows", p, n, g)
		}
	}
	for _, f := range expGapQ16 {
		if f > maxGapQ16 {
			t.Fatalf("table factor %d above maxGapQ16 %d", f, maxGapQ16)
		}
	}

	// Uncapped backoff grows to its saturation point instead of
	// wrapping: no draw falls below 3/4 of the doubled base.
	s := &sim{cfg: Config{BackoffBase: 1000, Seed: 7}}
	for n := int32(1); n < 200; n++ {
		floor := uint64(1000) << min(n-1, 52) / 4 * 3
		if b := s.backoff(0, n); b < floor {
			t.Fatalf("backoff(%d) = %d, below %d: the doubling wrapped", n, b, floor)
		}
	}
}
