package core

import (
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/sgx"
)

func TestSettings(t *testing.T) {
	cases := []struct {
		s         Setting
		name      string
		inEnclave bool
		dataInEPC bool
		mode      engine.Mode
	}{
		{PlainCPU, "Plain CPU", false, false, engine.PlainCPU},
		{PlainCPUM, "Plain CPU M", false, false, engine.PlainCPUM},
		{SGXDoE, "SGX DoE", true, false, engine.Enclave},
		{SGXDiE, "SGX DiE", true, true, engine.Enclave},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.name {
			t.Errorf("Setting(%d).String() = %q, want %q", int(c.s), got, c.name)
		}
		if got := c.s.InEnclave(); got != c.inEnclave {
			t.Errorf("%s: InEnclave = %v", c.name, got)
		}
		if got := c.s.DataInEPC(); got != c.dataInEPC {
			t.Errorf("%s: DataInEPC = %v", c.name, got)
		}
		if got := c.s.Mode(); got != c.mode {
			t.Errorf("%s: Mode = %v, want %v", c.name, got, c.mode)
		}
	}
	if got := Setting(9).String(); got != "Setting(9)" {
		t.Errorf("unknown setting prints %q", got)
	}
}

func TestNewEnvDefaults(t *testing.T) {
	for _, s := range []Setting{PlainCPU, PlainCPUM, SGXDoE, SGXDiE} {
		e := NewEnv(Options{Setting: s, Node: 1})
		if e.Plat == nil || e.Space == nil || e.OS != sgx.DefaultOSCosts() || e.SGX != engine.DefaultSGXCosts() {
			t.Errorf("%s: defaults not filled: %+v", s, e)
		}
		if e.Mode != s.Mode() || e.Node != 1 {
			t.Errorf("%s: mode %v, node %d", s, e.Mode, e.Node)
		}
	}
	if sp := mem.NewSpace(2); NewEnv(Options{Space: sp}).Space != sp {
		t.Error("NewEnv ignored Options.Space")
	}

	bad := platform.XeonGold6326()
	bad.Sockets = 0
	defer func() {
		if recover() == nil {
			t.Error("NewEnv accepted an invalid platform")
		}
	}()
	NewEnv(Options{Plat: bad})
}

func TestRegions(t *testing.T) {
	for _, c := range []struct {
		s          Setting
		epcPages   int64
		data, spil mem.Kind
	}{
		{PlainCPU, 0, mem.Untrusted, mem.Untrusted},
		{SGXDoE, 0, mem.Untrusted, mem.Untrusted},
		{SGXDiE, 0, mem.EPC, mem.EPC},
		// A capacity-limited EPC stages spilled partitions outside it.
		{SGXDiE, 64, mem.EPC, mem.Untrusted},
	} {
		e := NewEnv(Options{Setting: c.s, EPCPages: c.epcPages, Node: 1})
		if r := e.DataRegion(); r != (mem.Region{Node: 1, Kind: c.data}) {
			t.Errorf("%s, %d EPC pages: data region %+v", c.s, c.epcPages, r)
		}
		if r := e.SpillRegion(); r != (mem.Region{Node: 1, Kind: c.spil}) {
			t.Errorf("%s, %d EPC pages: spill region %+v", c.s, c.epcPages, r)
		}
	}
}

func TestRates(t *testing.T) {
	e := NewEnv(Options{})
	if e.Throughput(100, 0) != 0 || e.Bandwidth(100, 0) != 0 {
		t.Error("a zero-cycle run reports a nonzero rate")
	}
	sec := uint64(e.Plat.FreqHz)
	if got := e.Throughput(100, sec); got != 100 {
		t.Errorf("100 rows in one second: %g rows/s", got)
	}
	if got := e.Bandwidth(1<<20, 2*sec); got != 1<<19 {
		t.Errorf("1 MiB in two seconds: %g B/s", got)
	}
}

func TestThreads(t *testing.T) {
	e := NewEnv(Options{Setting: SGXDiE, EPCPages: 64, Node: 1, Reference: true})
	want := engine.Config{Plat: e.Plat, Mode: engine.Enclave, Costs: e.SGX, Node: 1, Reference: true, EPC: e.EPC}
	if got := e.EngineConfig(); got != want {
		t.Errorf("EngineConfig = %+v, want %+v", got, want)
	}
	if e.NewThread() == nil {
		t.Error("NewThread returned nil")
	}
	if g := e.NewGroup(3, nil); len(g.Threads) != 3 {
		t.Errorf("NewGroup(3) has %d threads", len(g.Threads))
	}
	if g := e.NewGroup(2, func(i int) int { return i }); len(g.Threads) != 2 {
		t.Errorf("NewGroup(2, remap) has %d threads", len(g.Threads))
	}
}
