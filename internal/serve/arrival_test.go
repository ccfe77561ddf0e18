package serve

import "testing"

// TestArrivalKindsPoissonOnly: Poisson (kind 1) is the one arrival
// process. validate rejects every other kind value, among them the
// retired uniform (0), bursty (2), diurnal (3) and heavytail (4) that
// the open.* fuzz seeds still carry, and ParseArrivalKind accepts only
// "poisson".
func TestArrivalKindsPoissonOnly(t *testing.T) {
	for k := ArrivalKind(-1); k <= 5; k++ {
		err := (&ArrivalPlan{Kind: k, MeanGapCycles: 300_000}).validate()
		if (err == nil) != (k == ArrivalPoisson) {
			t.Errorf("validate(kind %d) = %v", int(k), err)
		}
	}
	for _, s := range []string{"poisson", "uniform", "bursty", "diurnal", "heavytail", "Poisson", ""} {
		k, err := ParseArrivalKind(s)
		if (err == nil) != (s == "poisson") || err == nil && k != ArrivalPoisson {
			t.Errorf("ParseArrivalKind(%q) = %v, %v", s, k, err)
		}
	}
}
