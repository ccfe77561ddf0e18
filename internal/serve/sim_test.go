package serve

import (
	"testing"
	"unsafe"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
)

// TestRecordSizes guards the packed sizes stated beside the event
// record: the pre-sized slices and the wheel's slab are multiples of
// them, so a field that widens one shows here before it shows in the
// allocation budget.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"event", unsafe.Sizeof(event{}), 32},
		{"request", unsafe.Sizeof(request{}), 32},
		{"attempt", unsafe.Sizeof(attempt{}), 40},
		{"wheelNode", unsafe.Sizeof(wheelNode{}), 40},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.got, r.want)
		}
	}
}

// TestFIFOCapacityTracksDepth: an overloaded open-loop run behind
// admission control holds its queue near AdmitDepth for the whole
// replay, so the queue never drains. Its ring must stay at the scale of
// the deepest the queue got however many attempts pass through it (the
// slice it replaces kept every index ever pushed until the queue
// emptied).
func TestFIFOCapacityTracksDepth(t *testing.T) {
	m := obs.NewMetrics(20_000, 1<<16)
	cfg := Config{
		Clients: 256, Workers: 8, RequestsPerClient: 256, Sync: SyncLockFree, JitterPct: 10, Seed: 7,
		AdmitDepth: 48, MaxRetries: 2, BackoffBase: 50_000,
		Arrival: &ArrivalPlan{Kind: ArrivalPoisson, MeanGapCycles: 400_000},
		Metrics: m,
	}
	s, err := wheelTestWorkload(core.SGXDiE).replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	for _, sm := range m.Samples() {
		peak = max(peak, sm.G.QueueDepth)
	}
	if s.bd.Shed == 0 || peak < uint64(cfg.AdmitDepth) {
		t.Fatalf("scenario is not overloaded: %d shed, sampled peak depth %d", s.bd.Shed, peak)
	}
	q := &s.shards[0].queue
	if got := uint64(len(q.buf)); got > 2*peak {
		t.Errorf("queue ring holds %d slots, sampled peak depth %d", got, peak)
	}
	if pushed := len(s.atts); pushed < 50*len(q.buf) {
		t.Errorf("only %d attempts went through the %d-slot ring: the run is too short to show growth", pushed, len(q.buf))
	}
	if got, limit := len(s.idle.buf), max(2*cfg.Workers, 8); got > limit {
		t.Errorf("idle ring holds %d slots for %d workers (limit %d)", got, cfg.Workers, limit)
	}
}
