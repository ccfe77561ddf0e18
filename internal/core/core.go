// Package core ties the simulated platform, memory, engine and SGX
// runtime together into the execution environments the paper benchmarks.
//
// The paper compares three settings (Section 3) plus one diagnostic one:
//
//   - Plain CPU: native execution, data in untrusted memory.
//   - Plain CPU M: native execution with the SSB mitigation force-enabled
//     (prctl), used to attribute enclave slowdowns (Section 4.2).
//   - SGX DoE (Data outside Enclave): code in the enclave, data untrusted;
//     isolates code-execution effects from memory-encryption effects.
//   - SGX DiE (Data in Enclave): code and data inside the enclave; data
//     lives in the EPC and pays encryption and EPCM costs.
//
// An Env fixes one setting and provides allocation and thread-group
// construction for operators. Envs influence timing only — results are
// identical across settings by construction.
package core

import (
	"fmt"

	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/sgx"
)

// Setting is one of the paper's execution settings.
type Setting int

const (
	// PlainCPU is the native baseline without SGX.
	PlainCPU Setting = iota
	// PlainCPUM is native execution with the Spectre-V4 mitigation
	// enabled via prctl ("Plain CPU M").
	PlainCPUM
	// SGXDoE runs code inside an enclave over untrusted data.
	SGXDoE
	// SGXDiE runs code inside an enclave over EPC-resident data.
	SGXDiE
)

// String returns the paper's name for the setting.
func (s Setting) String() string {
	switch s {
	case PlainCPU:
		return "Plain CPU"
	case PlainCPUM:
		return "Plain CPU M"
	case SGXDoE:
		return "SGX DoE"
	case SGXDiE:
		return "SGX DiE"
	default:
		return fmt.Sprintf("Setting(%d)", int(s))
	}
}

// InEnclave reports whether code executes inside an enclave.
func (s Setting) InEnclave() bool { return s == SGXDoE || s == SGXDiE }

// DataInEPC reports whether operator data lives in protected memory.
func (s Setting) DataInEPC() bool { return s == SGXDiE }

// Mode returns the engine execution mode for the setting.
func (s Setting) Mode() engine.Mode {
	switch s {
	case PlainCPU:
		return engine.PlainCPU
	case PlainCPUM:
		return engine.PlainCPUM
	default:
		return engine.Enclave
	}
}

// Options configures NewEnv. Zero values select the paper's defaults.
type Options struct {
	Plat    *platform.Platform // default: XeonGold6326
	Setting Setting
	Node    int             // home NUMA node for data and threads
	OS      sgx.OSCosts     // default: sgx.DefaultOSCosts
	SGX     engine.SGXCosts // default: engine.DefaultSGXCosts
	Space   *mem.Space      // default: fresh space per Env
	// EPCPages caps the enclave's EPC at this many 4 KiB pages; data
	// accesses beyond it demand-page with eviction (the oversubscription
	// regime). 0 means unlimited — the default, and the behaviour of every
	// setting whose data is not EPC-resident.
	EPCPages int64
	// Reference selects the engine's per-op reference path instead of the
	// batched fast path. Simulated results and statistics are identical
	// by construction (golden-tested); only host wall-clock differs.
	Reference bool
}

// Env is one fully configured execution environment.
type Env struct {
	Plat      *platform.Platform
	Space     *mem.Space
	Setting   Setting
	Mode      engine.Mode
	OS        sgx.OSCosts
	SGX       engine.SGXCosts
	Node      int
	Reference bool // per-op reference engine path (see Options.Reference)
	// EPC is the enclave's finite EPC capacity model (nil: unlimited).
	EPC *engine.EPCDomain
	// EPCPages echoes Options.EPCPages (0: unlimited), for diagnostics.
	EPCPages int64
}

// NewEnv builds an environment for the given options.
func NewEnv(o Options) *Env {
	if o.Plat == nil {
		o.Plat = platform.XeonGold6326()
	}
	if err := o.Plat.Validate(); err != nil {
		panic(err)
	}
	if o.OS == (sgx.OSCosts{}) {
		o.OS = sgx.DefaultOSCosts()
	}
	if o.SGX == (engine.SGXCosts{}) {
		o.SGX = engine.DefaultSGXCosts()
	}
	if o.Space == nil {
		o.Space = mem.NewSpace(o.Plat.Sockets)
	}
	return &Env{
		Plat:      o.Plat,
		Space:     o.Space,
		Setting:   o.Setting,
		Mode:      o.Setting.Mode(),
		OS:        o.OS,
		SGX:       o.SGX,
		Node:      o.Node,
		Reference: o.Reference,
		EPC:       sgx.NewEPCDomain(o.EPCPages, o.OS),
		EPCPages:  o.EPCPages,
	}
}

// DataRegion returns where operator data is placed under this setting.
func (e *Env) DataRegion() mem.Region {
	if e.Setting.DataInEPC() {
		return mem.Region{Node: e.Node, Kind: mem.EPC}
	}
	return mem.Region{Node: e.Node, Kind: mem.Untrusted}
}

// SpillRegion returns where spill-partitioned operators stage their
// partition runs. When the EPC is capacity-limited the runs are staged in
// untrusted memory — spilled partitions leave the enclave through
// sequential streaming writes instead of churning the paged EPC — else
// staging stays in the normal data region.
func (e *Env) SpillRegion() mem.Region {
	if e.EPCPages > 0 {
		return mem.Region{Node: e.Node, Kind: mem.Untrusted}
	}
	return e.DataRegion()
}

// The partition-size policy of every partitioning operator. Cache-sized
// partitions (RHO, CrkJoin, the group-by, the sort's runs) target a
// quarter of L2; spill partitions (GRACE, the spill group-by) target the
// same, capped under an EPC limit by an eighth of one thread's EPC share,
// which leaves CLOCK room to keep a partition's working set resident
// against the streams around it. kernels.PartitionBits turns a target
// into radix bits.

// L2Target returns the cache-sized partition target in bytes: a quarter
// of L2 (at least 1 KiB).
func (e *Env) L2Target() int64 { return max(e.Plat.L2.SizeBytes/4, 1024) }

// SpillTarget returns the spill partition target in bytes for threads
// workers: L2Target, capped when the EPC is limited at an eighth of one
// thread's share of it (at least 1 KiB).
func (e *Env) SpillTarget(threads int) int64 {
	if e.EPCPages <= 0 {
		return e.L2Target()
	}
	return max(min(e.L2Target(), e.EPCPages*4096/int64(threads)/8), 1024)
}

// EngineConfig returns the thread construction config for this Env.
func (e *Env) EngineConfig() engine.Config {
	return engine.Config{Plat: e.Plat, Mode: e.Mode, Costs: e.SGX, Node: e.Node, Reference: e.Reference, EPC: e.EPC}
}

// NewGroup creates a thread group homed on e.Node. nodeOf may remap
// individual threads to other sockets (NUMA experiments); nil pins all
// threads to e.Node.
func (e *Env) NewGroup(threads int, nodeOf func(i int) int) *exec.Group {
	if nodeOf == nil {
		nodeOf = func(int) int { return e.Node }
	}
	return exec.NewGroup(e.EngineConfig(), threads, nodeOf)
}

// NewThread creates one standalone thread (micro-benchmarks).
func (e *Env) NewThread() *engine.Thread {
	return engine.NewThread(e.EngineConfig(), 0)
}

// Throughput converts (rows processed, wall cycles) to rows per second.
func (e *Env) Throughput(rows int, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(rows) / e.Plat.CyclesToSeconds(cycles)
}

// Bandwidth converts (bytes processed, wall cycles) to bytes per second.
func (e *Env) Bandwidth(bytes int64, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) / e.Plat.CyclesToSeconds(cycles)
}
