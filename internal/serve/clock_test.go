package serve

import (
	"math"
	"strings"
	"testing"

	"sgxbench/internal/core"
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
		{"bursty burst span product", func(c *Config) {
			c.Arrival = &ArrivalPlan{Kind: ArrivalBursty, MeanGapCycles: 1 << 40, BurstSize: 1 << 10}
		}, "BurstSize"},
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

	// The largest accepted gaps still draw without overflow.
	for _, p := range []*ArrivalPlan{
		{Kind: ArrivalPoisson, MeanGapCycles: math.MaxUint64 / maxGapQ16},
		{Kind: ArrivalHeavyTail, MeanGapCycles: math.MaxUint64 / maxGapQ16},
		{Kind: ArrivalBursty, MeanGapCycles: math.MaxUint64 / maxGapQ16 / 8, BurstSize: 8},
	} {
		if err := p.validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for n := 0; n < 64; n++ {
			if g := p.gap(7, 0, n*8, 0); g > math.MaxUint64/2 {
				t.Errorf("%s: draw %d is %d, more than the largest table factor allows", p, n, g)
			}
		}
	}
	for _, f := range append(expGapQ16[:], paretoGapQ16[:]...) {
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
