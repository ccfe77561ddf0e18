package serve

import (
	"hash/fnv"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/obs"
)

// traceDigest folds every span a tracer holds — name, category, phase,
// start, duration, track and each attribute — into one FNV-1a value.
func traceDigest(tr *obs.Tracer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, sp := range tr.Spans() {
		str(sp.Name)
		str(sp.Cat)
		word(uint64(sp.Ph))
		word(sp.T)
		word(sp.Dur)
		word(uint64(sp.PID))
		word(uint64(sp.TID))
		word(uint64(len(sp.Args)))
		for _, a := range sp.Args {
			str(a.Key)
			word(a.Val)
		}
	}
	return h.Sum64()
}

// TestTracePinned pins every span the tracer receives, on both sides of
// the enclave boundary, for the global closed loop, its SDK-mutex EDMM
// and fault-injected variants, and the sharded batched fault scenario.
// The pinned replays check the simulated numbers; this checks that the
// trace still tells the same story about them — which interval each
// service span covers, which worker and generation it names.
func TestTracePinned(t *testing.T) {
	base, cfgs := pinnedConfigs()
	cfgs["legacy"] = func(c Config) Config { return c }
	pins := []struct {
		setting core.Setting
		name    string
		spans   int
		digest  uint64
	}{
		{core.PlainCPU, "legacy", 1152, 0x9553a4cd47806c67},
		{core.PlainCPU, "legacy.mutex.dyn", 1152, 0xdba66266832c64fd},
		{core.PlainCPU, "legacy.fault", 1349, 0x844ceb5b87024a7a},
		{core.PlainCPU, "shard.batch.fault", 1272, 0xc622fa129daa6e63},
		{core.SGXDiE, "legacy", 1152, 0xc72a20df7816277a},
		{core.SGXDiE, "legacy.mutex.dyn", 1152, 0x9a379ae85a3e60d7},
		{core.SGXDiE, "legacy.fault", 1442, 0x26e7e26ec3446845},
		{core.SGXDiE, "shard.batch.fault", 1262, 0x8f0beb8551f59e06},
	}
	for _, p := range pins {
		c := cfgs[p.name](base)
		c.Trace = obs.NewTracer(1 << 14)
		if _, err := wheelTestWorkload(p.setting).Simulate(c); err != nil {
			t.Fatalf("%v/%s: %v", p.setting, p.name, err)
		}
		if d := c.Trace.Dropped(); d != 0 {
			t.Fatalf("%v/%s: tracer dropped %d spans", p.setting, p.name, d)
		}
		if n, d := len(c.Trace.Spans()), traceDigest(c.Trace); n != p.spans || d != p.digest {
			t.Errorf("%v/%s: trace moved: %d spans, digest %#x; want %d, %#x",
				p.setting, p.name, n, d, p.spans, p.digest)
		}
	}
}
