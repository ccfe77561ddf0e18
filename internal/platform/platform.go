// Package platform describes the simulated benchmark hardware.
//
// The default platform mirrors Table 1 of the paper: a dual-socket Intel
// Xeon Gold 6326 (Ice Lake SP, 3rd Gen Xeon Scalable) with SGXv2 support,
// 16 cores per socket at a fixed 2.9 GHz, 8 DDR4-3200 channels per socket
// and 64 GB EPC per socket.
//
// All latency constants are expressed in core cycles; bandwidths in bytes
// per cycle. A Platform can be proportionally scaled down with Scaled so
// that simulated experiments use smaller data sets while keeping the same
// relative cache/TLB residency behaviour.
package platform

import (
	"fmt"
	"math/bits"
)

// CacheGeom describes one set-associative cache level.
type CacheGeom struct {
	SizeBytes int64 // total capacity
	Ways      int   // associativity
	LineBytes int64 // cache line size
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int64 { return g.SizeBytes / (int64(g.Ways) * g.LineBytes) }

// Check returns an error naming the rule g breaks, nil if the cache
// models simulate exactly the capacity g states: 1 to maxWays ways, and a
// whole number of sets that is a power of two, so that a set index is a
// mask of the line number.
func (g CacheGeom) Check() error {
	if g.Ways < 1 || g.Ways > maxWays {
		return fmt.Errorf("ways must be in [1,%d], got %d", maxWays, g.Ways)
	}
	if s := g.Sets(); s < 1 || s&(s-1) != 0 || s*int64(g.Ways)*g.LineBytes != g.SizeBytes {
		return fmt.Errorf("must hold a power-of-two number of whole sets of %d ways, got %d lines (%d sets)", g.Ways, g.SizeBytes/g.LineBytes, s)
	}
	return nil
}

// Share returns the part of g one of k threads sharing it simulates (k < 1
// counts as 1): a k-th of the sets, at least one, rounded up to a power of
// two. The round-up is the one place a simulated geometry exceeds what it
// is derived from, for k that are not powers of two.
func (g CacheGeom) Share(k int) CacheGeom {
	s := max(g.Sets()/int64(max(k, 1)), 1)
	s = 1 << bits.Len64(uint64(s-1))
	g.SizeBytes = s * int64(g.Ways) * g.LineBytes
	return g
}

// scaled returns g with its set count divided by f, but not below floor
// sets (nor above g's own).
func (g CacheGeom) scaled(f, floor int64) CacheGeom {
	s := g.Sets()
	g.SizeBytes = max(s/f, min(s, floor)) * int64(g.Ways) * g.LineBytes
	return g
}

// TLBGeom describes one TLB level (4 KiB pages).
type TLBGeom struct {
	Entries int
	Ways    int
}

// Cache returns the TLB as the cache it is: Entries/Ways sets of Ways
// one-page lines, whose line numbers are page numbers.
func (g TLBGeom) Cache() CacheGeom {
	return CacheGeom{SizeBytes: int64(g.Entries) * 4096, Ways: g.Ways, LineBytes: 4096}
}

// Platform is the full hardware description used by the timing engine.
// All code paths treat a Platform as immutable after construction.
type Platform struct {
	Name string

	Sockets        int
	CoresPerSocket int
	FreqHz         float64 // fixed frequency (Turbo Boost disabled, Table 1)

	PageBytes int64

	L1D CacheGeom // per core
	L2  CacheGeom // per core
	L3  CacheGeom // per socket, shared

	DTLB TLBGeom // per core, 4 KiB pages
	STLB TLBGeom // per core, unified second level

	// Latencies (cycles).
	LatL1        uint64 // L1d load-to-use
	LatL2        uint64
	LatL3        uint64
	LatDRAM      uint64 // local socket row-buffer-miss latency
	LatRemote    uint64 // additional cycles for a remote-socket DRAM access
	LatSTLB      uint64 // added when dTLB misses but STLB hits
	LatPageWalk  uint64 // base page-walk cost on STLB miss (plus PTE memory accesses)
	PTEAccesses  int    // dependent PTE loads charged through the hierarchy per walk
	MLPSlots     int    // line-fill buffers: outstanding load misses per core
	StoreBufSize int    // store buffer entries per core

	// Bandwidths (bytes per core-cycle).
	CoreStreamBW   float64 // single-core streaming bandwidth
	SocketDRAMBW   float64 // aggregate DRAM bandwidth per socket
	UPIBW          float64 // aggregate cross-socket UPI bandwidth (all links)
	RemoteStreamBW float64 // single-core streaming bandwidth to the remote socket

	// Memory sizes.
	DRAMPerSocket int64
	EPCPerSocket  int64

	// Scale is the proportional scale-down factor applied by Scaled
	// (1 for the full-size platform). Experiments divide their data
	// sizes by Scale so that residency behaviour is preserved.
	Scale int64
}

// XeonGold6326 returns the paper's benchmark machine (Table 1).
func XeonGold6326() *Platform {
	return &Platform{
		Name:           "2x Intel Xeon Gold 6326 (Ice Lake SP, SGXv2)",
		Sockets:        2,
		CoresPerSocket: 16,
		FreqHz:         2.9e9,
		PageBytes:      4096,

		L1D: CacheGeom{SizeBytes: 48 << 10, Ways: 12, LineBytes: 64},
		L2:  CacheGeom{SizeBytes: 1280 << 10, Ways: 20, LineBytes: 64},
		L3:  CacheGeom{SizeBytes: 24 << 20, Ways: 12, LineBytes: 64},

		DTLB: TLBGeom{Entries: 64, Ways: 4},
		STLB: TLBGeom{Entries: 1536, Ways: 12},

		LatL1:        4,
		LatL2:        14,
		LatL3:        42,
		LatDRAM:      260, // ~90 ns at 2.9 GHz
		LatRemote:    180, // ~62 ns extra over UPI
		LatSTLB:      7,
		LatPageWalk:  24,
		PTEAccesses:  2,
		MLPSlots:     10, // line fill buffers on Ice Lake (per load port group)
		StoreBufSize: 56,

		// DDR4-3200 x 8 channels = 204.8 GB/s peak; ~70 B/cycle at 2.9 GHz.
		// Sustained scan throughput tops out near 100 GiB/s (Fig 14), which
		// the engine reproduces via the per-core and per-socket caps below.
		CoreStreamBW:   3.1,  // ~9 GB/s per core
		SocketDRAMBW:   38.0, // ~110 GB/s sustained per socket
		UPIBW:          23.0, // ~67.2 GB/s over 3 UPI links (paper, §5.4)
		RemoteStreamBW: 2.4,

		DRAMPerSocket: 256 << 30,
		EPCPerSocket:  64 << 30,

		Scale: 1,
	}
}

// Scaled returns a copy of p with the capacity quantities that data sizes
// are measured against (L2, L3, STLB coverage, DRAM/EPC sizes) divided by
// f. Latencies, bandwidth per cycle — and, importantly, the *inner-loop*
// working-set capacities L1d and the first-level dTLB — stay (mostly)
// fixed: structures like radix-partition cursors, bucket lines and spill
// slots do not shrink with the data, so scaling L1 with the data would
// make kernels thrash unphysically. Each cache and TLB level divides its
// set count, so every level keeps a power-of-two number of sets, floored
// at 16 sets for L1d (12 KiB) and L2 (20 KiB), 64 for L3 (48 KiB), 4 for
// the dTLB (16 entries) and 2 for the STLB (24 entries). An experiment
// that divides its data sizes by the same f observes the same L2/L3/TLB
// residency transitions as the full-size platform. f must be a positive
// power of two.
func (p *Platform) Scaled(f int64) *Platform {
	if f <= 0 || f&(f-1) != 0 {
		panic(fmt.Sprintf("platform: scale factor %d must be a positive power of two", f))
	}
	q := *p
	q.Scale = p.Scale * f
	q.L1D = p.L1D.scaled(f, 16)
	q.L2 = p.L2.scaled(f, 16)
	q.L3 = p.L3.scaled(f, 64)
	q.DTLB.Entries = int(p.DTLB.Cache().scaled(f, 4).Sets()) * p.DTLB.Ways
	q.STLB.Entries = int(p.STLB.Cache().scaled(f, 2).Sets()) * p.STLB.Ways
	q.DRAMPerSocket = max(p.DRAMPerSocket/f, 1<<20)
	q.EPCPerSocket = max(p.EPCPerSocket/f, 1<<20)
	return &q
}

// CyclesToSeconds converts engine cycles to wall-clock seconds.
func (p *Platform) CyclesToSeconds(c uint64) float64 { return float64(c) / p.FreqHz }

// maxWays bounds the associativity of every cache and TLB level: the
// packed models in internal/cache count the resident lines of a set that
// share a membership-filter key in one byte, and with 256 such lines the
// counter wraps to 0 and the filter "proves" a resident line absent.
const maxWays = 255

// Validate returns an error describing the first constraint p violates,
// nil if the timing engine can run on p. Beyond plain sanity it rejects
// what the engine would otherwise panic on or silently mis-simulate:
// engine.NewThread refuses a platform that does not validate.
func (p *Platform) Validate() error {
	switch {
	case p.Sockets < 1:
		return fmt.Errorf("platform: need at least one socket, got %d", p.Sockets)
	case p.CoresPerSocket < 1:
		return fmt.Errorf("platform: need at least one core per socket, got %d", p.CoresPerSocket)
	case p.FreqHz <= 0:
		return fmt.Errorf("platform: frequency must be positive, got %g", p.FreqHz)
	case p.PageBytes < 4096 || p.PageBytes&(p.PageBytes-1) != 0:
		// The EPC paging model and the stream prefetcher track 4 KiB pages.
		return fmt.Errorf("platform: page size must be a power of two >= 4096, got %d", p.PageBytes)
	case p.MLPSlots < 1:
		return fmt.Errorf("platform: MLPSlots must be >= 1, got %d", p.MLPSlots)
	case p.StoreBufSize < 1:
		return fmt.Errorf("platform: StoreBufSize must be >= 1, got %d", p.StoreBufSize)
	case p.CoreStreamBW <= 0 || p.RemoteStreamBW <= 0 || p.SocketDRAMBW <= 0 || p.UPIBW <= 0:
		return fmt.Errorf("platform: bandwidths must be positive")
	case p.L1D.LineBytes != 64 || p.L2.LineBytes != 64 || p.L3.LineBytes != 64:
		// The engine computes line numbers as addr >> 6.
		return fmt.Errorf("platform: cache line size must be 64 bytes, got %d/%d/%d (L1D/L2/L3)",
			p.L1D.LineBytes, p.L2.LineBytes, p.L3.LineBytes)
	}
	// A TLB is a cache of pages and obeys the same rules.
	for _, l := range []struct {
		name string
		g    CacheGeom
	}{{"L1D cache", p.L1D}, {"L2 cache", p.L2}, {"L3 cache", p.L3}, {"DTLB", p.DTLB.Cache()}, {"STLB", p.STLB.Cache()}} {
		if err := l.g.Check(); err != nil {
			return fmt.Errorf("platform: %s %w", l.name, err)
		}
	}
	return nil
}
