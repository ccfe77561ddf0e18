package serve

import (
	"fmt"
	"math"
)

// ArrivalKind selects the open-loop inter-arrival process. Poisson is
// the only one: it is the open-loop load the scale gates run.
type ArrivalKind int

// ArrivalPoisson draws exponential gaps (memoryless arrivals).
const ArrivalPoisson ArrivalKind = 1

func (k ArrivalKind) String() string {
	if k == ArrivalPoisson {
		return "poisson"
	}
	return fmt.Sprintf("arrival(%d)", int(k))
}

// ArrivalPlan makes a scenario open-loop: each client issues new logical
// requests on its own arrival clock, independent of responses — so
// overload piles up queueing instead of throttling the offered load,
// exactly the regime where dispatch sharding and batching matter. A nil
// plan keeps the original closed loop.
type ArrivalPlan struct {
	Kind ArrivalKind `json:"kind"`
	// MeanGapCycles is the mean inter-arrival gap per client; the
	// offered load is Clients / MeanGapCycles requests per cycle.
	MeanGapCycles uint64 `json:"mean_gap_cycles"`
}

func (p *ArrivalPlan) validate() error {
	if p.MeanGapCycles == 0 {
		return fmt.Errorf("serve: ArrivalPlan.MeanGapCycles must be positive")
	}
	// gap scales the mean by a Q16 factor of at most maxGapQ16; the
	// product must fit in 64 bits.
	const maxMean = math.MaxUint64 / maxGapQ16
	if p.MeanGapCycles > maxMean {
		return fmt.Errorf("serve: ArrivalPlan.MeanGapCycles %d above %d", p.MeanGapCycles, uint64(maxMean))
	}
	if p.Kind != ArrivalPoisson {
		return fmt.Errorf("serve: unknown ArrivalKind %d", int(p.Kind))
	}
	return nil
}

// String is the one-line form diag prints so a scenario is reproducible
// from its output alone.
func (p *ArrivalPlan) String() string {
	return fmt.Sprintf("%s meanGap=%d", p.Kind, p.MeanGapCycles)
}

// gap draws client c's n-th inter-arrival gap. Pure integer arithmetic
// over a Q16 lookup table — no floating point on any simulated path, so
// results are bit-identical across platforms.
func (p *ArrivalPlan) gap(seed uint64, c, n int) uint64 {
	r := splitmix64(seed ^ 0xa331c0de ^ uint64(c)<<32 ^ uint64(n))
	return p.MeanGapCycles * expGapQ16[r%64] >> 16
}

// arrive starts open-loop client c's next logical request at time t and
// schedules the following arrival — independent of any response, which
// is what makes the load open-loop.
func (s *sim) arrive(c int32, t uint64) {
	rnd := splitmix64(s.cfg.Seed ^ uint64(c)<<32 ^ uint64(s.issued[c]))
	idx := int32(len(s.reqs))
	class := s.pickClass(rnd)
	s.reqs = append(s.reqs, request{client: c, class: class, service: s.drawService(class, rnd), active: true, firstIssue: t})
	s.submit(idx, t)
	if s.issued[c] < s.cfg.RequestsPerClient {
		s.issued[c]++
		s.schedule(t+s.cfg.Arrival.gap(s.cfg.Seed, int(c), s.issued[c]), evArrive, c)
	}
}

// expGapQ16[k] = -ln(1 - (k+0.5)/64) * 2^16 is the exponential inverse
// CDF in Q16 fixed point, evaluated at the 64 midpoints (k+0.5)/64 and
// integer-adjusted so the table's mean is exactly 2^16 — a draw therefore
// scales MeanGapCycles by an exactly-mean-1 factor, at most ~5.2x.
// Hardcoded (not computed with math.Log at runtime) so the simulation
// carries no floating point and cannot drift across platforms.
var expGapQ16 = [64]uint64{
	514, 1554, 2611, 3686, 4778, 5889, 7019, 8169,
	9339, 10530, 11744, 12981, 14241, 15526, 16837, 18174,
	19540, 20934, 22359, 23815, 25305, 26829, 28390, 29988,
	31627, 33307, 35032, 36803, 38624, 40496, 42424, 44410,
	46458, 48572, 50757, 53017, 55358, 57786, 60307, 62928,
	65659, 68509, 71489, 74610, 77887, 81338, 84979, 88836,
	92933, 97304, 101987, 107030, 112495, 118457, 125016, 132305,
	140508, 149886, 160834, 173985, 190455, 212507, 245984, 340653,
}

// maxGapQ16 is the largest factor expGapQ16 scales a mean by.
const maxGapQ16 = 340653
