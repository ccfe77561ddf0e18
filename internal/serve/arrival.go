package serve

import (
	"fmt"
	"math"
)

// ArrivalKind selects the open-loop inter-arrival process.
type ArrivalKind int

const (
	// ArrivalUniform paces every client at exactly MeanGapCycles.
	ArrivalUniform ArrivalKind = iota
	// ArrivalPoisson draws exponential gaps (memoryless arrivals).
	ArrivalPoisson
	// ArrivalBursty releases BurstSize back-to-back arrivals, then one
	// exponential gap stretched by BurstSize so the mean rate is
	// unchanged — same load, much worse queueing.
	ArrivalBursty
	// ArrivalDiurnal modulates exponential gaps by a 16-phase sinusoidal
	// rate curve over RampPeriodCycles (a compressed day: peak rate
	// ~1.6x the mean, trough ~0.4x).
	ArrivalDiurnal
	// ArrivalHeavyTail draws Pareto-like gaps (alpha ~ 1.5): most
	// arrivals cluster, a deterministic tail stretches to ~10x the mean.
	ArrivalHeavyTail
)

func (k ArrivalKind) String() string {
	switch k {
	case ArrivalUniform:
		return "uniform"
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBursty:
		return "bursty"
	case ArrivalDiurnal:
		return "diurnal"
	case ArrivalHeavyTail:
		return "heavytail"
	}
	return fmt.Sprintf("arrival(%d)", int(k))
}

// ParseArrivalKind parses the String form (diag flags).
func ParseArrivalKind(s string) (ArrivalKind, error) {
	for _, k := range []ArrivalKind{ArrivalUniform, ArrivalPoisson, ArrivalBursty, ArrivalDiurnal, ArrivalHeavyTail} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown arrival kind %q", s)
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
	// BurstSize is the ArrivalBursty batch length (ignored otherwise).
	BurstSize int `json:"burst_size,omitempty"`
	// RampPeriodCycles is the ArrivalDiurnal full-cycle length
	// (ignored otherwise). Must be at least 16 cycles.
	RampPeriodCycles uint64 `json:"ramp_period_cycles,omitempty"`
}

func (p *ArrivalPlan) validate() error {
	if p.MeanGapCycles == 0 {
		return fmt.Errorf("serve: ArrivalPlan.MeanGapCycles must be positive")
	}
	// gap scales the mean (a bursty burst's whole span) by a Q16 factor
	// of at most maxGapQ16; the product must fit in 64 bits.
	const maxMean = math.MaxUint64 / maxGapQ16
	if p.MeanGapCycles > maxMean {
		return fmt.Errorf("serve: ArrivalPlan.MeanGapCycles %d above %d", p.MeanGapCycles, uint64(maxMean))
	}
	switch p.Kind {
	case ArrivalUniform, ArrivalPoisson, ArrivalHeavyTail:
	case ArrivalBursty:
		if p.BurstSize < 1 {
			return fmt.Errorf("serve: ArrivalBursty needs BurstSize >= 1, got %d", p.BurstSize)
		}
		if p.MeanGapCycles > maxMean/uint64(p.BurstSize) {
			return fmt.Errorf("serve: ArrivalBursty MeanGapCycles %d x BurstSize %d above %d",
				p.MeanGapCycles, p.BurstSize, uint64(maxMean))
		}
	case ArrivalDiurnal:
		if p.RampPeriodCycles < 16 {
			return fmt.Errorf("serve: ArrivalDiurnal needs RampPeriodCycles >= 16, got %d", p.RampPeriodCycles)
		}
	default:
		return fmt.Errorf("serve: unknown ArrivalKind %d", int(p.Kind))
	}
	return nil
}

// String is the one-line form diag prints so a scenario is reproducible
// from its output alone.
func (p *ArrivalPlan) String() string {
	s := fmt.Sprintf("%s meanGap=%d", p.Kind, p.MeanGapCycles)
	if p.Kind == ArrivalBursty {
		s += fmt.Sprintf(" burst=%d", p.BurstSize)
	}
	if p.Kind == ArrivalDiurnal {
		s += fmt.Sprintf(" ramp=%d", p.RampPeriodCycles)
	}
	return s
}

// gap draws client c's n-th inter-arrival gap at virtual time now.
// Pure integer arithmetic over Q16 lookup tables — no floating point on
// any simulated path, so results are bit-identical across platforms.
func (p *ArrivalPlan) gap(seed uint64, c, n int, now uint64) uint64 {
	r := splitmix64(seed ^ 0xa331c0de ^ uint64(c)<<32 ^ uint64(n))
	g := p.MeanGapCycles
	switch p.Kind {
	case ArrivalPoisson:
		return g * expGapQ16[r%64] >> 16
	case ArrivalBursty:
		bs := uint64(p.BurstSize)
		if uint64(n)%bs != 0 {
			return 0 // inside a burst: arrivals land together
		}
		return bs * g * expGapQ16[r%64] >> 16
	case ArrivalDiurnal:
		phase := now / (p.RampPeriodCycles / 16) % 16
		// gap = g * exp / 2^16 * 2^8 / rate, fused to keep precision.
		return g * expGapQ16[r%64] / (diurnalRateQ8[phase] << 8)
	case ArrivalHeavyTail:
		return g * paretoGapQ16[r%64] >> 16
	}
	return g // ArrivalUniform
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
		s.schedule(t+s.cfg.Arrival.gap(s.cfg.Seed, int(c), s.issued[c], t), evArrive, c)
	}
}

// Inverse-CDF tables in Q16 fixed point, evaluated at the 64 midpoints
// (k+0.5)/64 and integer-adjusted so each table's mean is exactly 2^16
// — a draw therefore scales MeanGapCycles by an exactly-mean-1 factor.
// Hardcoded (not computed with math.Log at runtime) so the simulation
// carries no floating point and cannot drift across platforms.

// expGapQ16[k] = -ln(1 - (k+0.5)/64) * 2^16: exponential gaps, max ~5.2x mean.
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

// maxGapQ16 is the largest factor either table scales a mean by.
const maxGapQ16 = 630358

// paretoGapQ16[k] = Pareto(alpha=1.5) inverse CDF, renormalized to mean
// 1: a deterministic heavy tail reaching ~9.6x the mean.
var paretoGapQ16 = [64]uint64{
	630358, 303045, 215579, 172262, 145689, 127446, 114014, 103640,
	95343, 88529, 82815, 77942, 73727, 70040, 66781, 63877,
	61270, 58913, 56770, 54812, 53015, 51358, 49825, 48401,
	47075, 45836, 44676, 43586, 42560, 41593, 40679, 39813,
	38992, 38212, 37470, 36763, 36089, 35444, 34828, 34238,
	33672, 33129, 32607, 32105, 31622, 31157, 30709, 30276,
	29859, 29455, 29065, 28688, 28322, 27968, 27625, 27292,
	26969, 26656, 26351, 26055, 25767, 25487, 25214, 24949,
}

// diurnalRateQ8: 16-phase sinusoidal rate multiplier, mean exactly 256
// (Q8): 256 + 160*sin(2*pi*k/16).
var diurnalRateQ8 = [16]uint64{
	256, 317, 369, 404, 416, 404, 369, 317,
	256, 195, 143, 108, 96, 108, 143, 195,
}
