package serve

import (
	"fmt"
	"math"
	"math/bits"

	"sgxbench/internal/obs"
	"sgxbench/internal/rng"
	"sgxbench/internal/sgx"
)

// FaultPlan is a seeded, deterministic fault schedule injected into
// Simulate's event loop. Everything is derived from the plan's Seed and
// the virtual clock — no host randomness — so a faulted scenario is as
// bit-reproducible as a clean one, across runs and engine paths.
//
// Three failure modes, mirroring what a full DBMS-in-enclave deployment
// (Hyrise under Gramine, DuckDB-SGX2) actually survives in production:
//
//   - AEX interrupt storms: windows of the virtual clock during which
//     every cycle of enclave execution is pelted with asynchronous
//     exits (timer interrupts, IPIs). Each AEX charges FaultCosts.AEX
//     of wall time without advancing the request's work — service
//     stretches by (1 + AEX/StormAEXGap) inside a window.
//   - Transient request failure: an enclave thread aborts partway
//     through a request (poisoned TCS, simulated EPCM integrity trip).
//     The attempt's partial work is wasted and the client sees a
//     retriable failure after FaultCosts.AbortDetect.
//   - Enclave crash → rebuild: a worker's enclave dies on a schedule;
//     the in-flight request is lost, and the worker is unavailable for
//     teardown plus an ECREATE/EADD/EINIT-scale rebuild. Rebuilds
//     serialize on the kernel's enclave-management lock — the same
//     serialization that collapses EDMM commits in Fig 12 — so
//     correlated crashes queue into long outages.
type FaultPlan struct {
	// Seed drives every deterministic draw (crash phases, abort picks,
	// abort progress fractions).
	Seed uint64
	// CrashInterval is the mean per-worker enclave lifetime in cycles;
	// each worker's crash times are jittered deterministically around
	// it. Zero disables crashes.
	CrashInterval uint64
	// RebuildPages is the number of EPC pages re-added during a
	// rebuild. Zero defaults to the workload's summed class working
	// sets (the enclave image that served them).
	RebuildPages int64
	// StormInterval is the AEX storm period: a storm window opens at
	// every positive multiple of it. Zero disables storms.
	StormInterval uint64
	// StormLen is the storm window length (must be <= StormInterval).
	StormLen uint64
	// StormAEXGap is how many cycles of enclave execution pass between
	// AEXs inside a storm window.
	StormAEXGap uint64
	// FailPct is the per-attempt transient failure probability in
	// percent [0, 100].
	FailPct int
	// Costs is the failure cost model; the zero value selects
	// sgx.DefaultFaultCosts.
	Costs sgx.FaultCosts
}

// validate reports the first structural problem with the plan.
func (p *FaultPlan) validate() error {
	if p.CrashInterval == 0 && p.StormInterval == 0 && p.FailPct == 0 {
		return fmt.Errorf("serve: fault plan injects nothing (no crashes, storms or failures); use Fault: nil instead")
	}
	if p.StormInterval > 0 {
		if p.StormLen == 0 || p.StormLen > p.StormInterval {
			return fmt.Errorf("serve: storm length %d outside (0, interval %d]", p.StormLen, p.StormInterval)
		}
		if p.StormAEXGap == 0 {
			return fmt.Errorf("serve: storms enabled with zero StormAEXGap")
		}
		if p.StormAEXGap > math.MaxUint64-p.costs().AEX {
			return fmt.Errorf("serve: StormAEXGap %d plus the AEX cost overflows uint64", p.StormAEXGap)
		}
	}
	if p.FailPct < 0 || p.FailPct > 100 {
		return fmt.Errorf("serve: FailPct %d outside [0, 100]", p.FailPct)
	}
	if p.RebuildPages < 0 {
		return fmt.Errorf("serve: negative RebuildPages %d", p.RebuildPages)
	}
	return nil
}

// costs returns the plan's cost model, defaulting the zero value.
func (p *FaultPlan) costs() sgx.FaultCosts {
	if p.Costs == (sgx.FaultCosts{}) {
		return sgx.DefaultFaultCosts()
	}
	return p.Costs
}

// StormWindows enumerates the plan's AEX storm windows that open before
// horizon, as [start, end) pairs on the virtual clock. Used by
// cmd/diag -replay to print a fault.* entry's injected timeline.
func (p *FaultPlan) StormWindows(horizon uint64) [][2]uint64 {
	var ws [][2]uint64
	if p == nil || p.StormInterval == 0 {
		return ws
	}
	for t := p.StormInterval; t < horizon; t += p.StormInterval {
		ws = append(ws, [2]uint64{t, t + p.StormLen})
	}
	return ws
}

// FaultEvent is one injected-fault occurrence recorded during a
// simulation: an enclave crash or the completion of its rebuild.
type FaultEvent struct {
	T      uint64 `json:"t"`
	Kind   string `json:"kind"` // "crash" or "rebuilt"
	Worker int    `json:"worker"`
}

// maxFaultEvents caps the per-result fault timeline so a long crash-loop
// scenario cannot bloat the report; the Breakdown counters stay exact.
const maxFaultEvents = 512

// maxCrashes bounds a replay's enclave crashes. Every other event is tied
// to an attempt, but a crash chain runs on the virtual clock: enclaves
// that crash faster than any attempt can finish, while clients back off
// for a long time, would spin the event loop without end.
const maxCrashes = 1 << 20

// Validate reports the first structural problem with the scenario
// configuration against a workload of nClasses query classes. Simulate
// calls it and returns its error instead of mis-running: a malformed
// mix, a zero-size pool facing live clients, or an underflowing jitter
// must fail loudly, not skew a golden number.
func (c Config) Validate(nClasses int) error {
	if nClasses <= 0 {
		return fmt.Errorf("serve: workload has no classes")
	}
	if c.Clients < 0 || c.Workers < 0 || c.RequestsPerClient < 0 {
		return fmt.Errorf("serve: negative counts (clients %d, workers %d, requests/client %d)",
			c.Clients, c.Workers, c.RequestsPerClient)
	}
	if c.Workers == 0 && c.Clients > 0 {
		return fmt.Errorf("serve: zero workers cannot serve %d clients", c.Clients)
	}
	// The event loop indexes workers, requests and attempts with 32 bits
	// and sizes its per-request slices up front; the bound also keeps the
	// request total from overflowing int.
	if c.Workers > maxIndex {
		return fmt.Errorf("serve: %d workers exceed the %d the simulator can index", c.Workers, maxIndex)
	}
	if n := c.normalized(); n.RequestsPerClient > maxIndex/n.Clients {
		return fmt.Errorf("serve: %d clients x %d requests/client exceed the %d requests the simulator can index",
			n.Clients, n.RequestsPerClient, maxIndex)
	}
	if c.JitterPct < 0 || c.JitterPct >= 100 {
		return fmt.Errorf("serve: JitterPct %d outside [0, 100)", c.JitterPct)
	}
	if c.Weights != nil {
		if len(c.Weights) != nClasses {
			return fmt.Errorf("serve: %d weights for %d classes", len(c.Weights), nClasses)
		}
		total := 0
		for i, wt := range c.Weights {
			if wt < 0 {
				return fmt.Errorf("serve: negative weight %d for class %d", wt, i)
			}
			if wt > math.MaxInt-total {
				return fmt.Errorf("serve: class weights overflow int at class %d", i)
			}
			total += wt
		}
		if total == 0 {
			return fmt.Errorf("serve: class weights sum to zero")
		}
	}
	if c.MaxRetries < 0 || c.MaxRetries >= maxIndex {
		return fmt.Errorf("serve: MaxRetries %d outside [0, %d)", c.MaxRetries, maxIndex)
	}
	if c.AdmitDepth < 0 {
		return fmt.Errorf("serve: negative AdmitDepth %d", c.AdmitDepth)
	}
	if c.BackoffCap > 0 && c.BackoffBase > c.BackoffCap {
		return fmt.Errorf("serve: BackoffBase %d above BackoffCap %d", c.BackoffBase, c.BackoffCap)
	}
	if c.Sync != SyncMutex && c.Sync != SyncSpin && c.Sync != SyncLockFree {
		return fmt.Errorf("serve: unknown SyncKind %d", int(c.Sync))
	}
	if c.Mem != MemPreSized && c.Mem != MemDynamic {
		return fmt.Errorf("serve: unknown MemMode %d", int(c.Mem))
	}
	if c.Dispatch != DispatchGlobal && c.Dispatch != DispatchSharded {
		return fmt.Errorf("serve: unknown DispatchKind %d", int(c.Dispatch))
	}
	if c.Batch < 0 {
		return fmt.Errorf("serve: negative Batch %d", c.Batch)
	}
	if c.Arrival != nil {
		if err := c.Arrival.validate(); err != nil {
			return err
		}
		if c.ThinkCycles > 0 {
			return fmt.Errorf("serve: think time is a closed-loop knob; an open-loop scenario (Arrival set) paces itself")
		}
	}
	if c.Fault != nil {
		if err := c.Fault.validate(); err != nil {
			return err
		}
	}
	return nil
}

// advanceWork executes work cycles of enclave execution starting at
// wall time t under the fault plan's AEX storm windows: inside a
// window, every StormAEXGap cycles of execution absorb one AEX of
// FaultCosts.AEX wall cycles that advances no work. Returns the
// completion time and the AEX count. Pure integer arithmetic — the
// deterministic heart of the storm model.
func (s *sim) advanceWork(t, work uint64) (uint64, uint64) {
	p := s.cfg.Fault
	if p == nil || p.StormInterval == 0 || work == 0 {
		return t + work, 0
	}
	gap, aex := p.StormAEXGap, s.fc.AEX
	var events uint64
	for work > 0 {
		k := t / p.StormInterval
		ws := k * p.StormInterval
		we := ws + p.StormLen
		if k >= 1 && t < we {
			// Inside a storm window: blocks of gap work cost gap+aex
			// wall; the window end is a hard wall bound.
			avail := we - t
			blk := gap + aex
			nb := avail / blk
			rem := avail % blk
			maxWork := nb*gap + min(rem, gap)
			if work <= maxWork {
				nFull := work / gap
				events += nFull
				return t + work + nFull*aex, events
			}
			work -= maxWork
			events += nb
			if rem >= gap {
				events++ // the partial block's AEX straddles the window end
			}
			t = we
		} else {
			// Outside any window: run plainly until the next one opens.
			nw := (k + 1) * p.StormInterval
			span := nw - t
			if work <= span {
				return t + work, events
			}
			work -= span
			t = nw
		}
	}
	return t, events
}

// crash kills worker w's enclave at time t: its in-flight attempts are
// lost, and the worker leaves the pool for
// teardown plus a rebuild serialized on the kernel's
// enclave-management lock.
func (s *sim) crash(w int32, t uint64) {
	wk := &s.workers[w]
	wk.crashes++
	s.bd.Crashes++
	if s.bd.Crashes > maxCrashes {
		s.err = fmt.Errorf("serve: more than %d enclave crashes: the crash schedule outpaces the requests", maxCrashes)
		return
	}
	s.recordFault(FaultEvent{T: t, Kind: "crash", Worker: int(w)})
	if wk.busy {
		wk.gen++ // pending evDone/evItemDone events are now stale
		wk.busy = false
		for _, ai := range wk.batch {
			s.loseAttempt(ai, t)
		}
		s.endEntry(wk)
	}
	wk.down = true
	pages := s.cfg.Fault.RebuildPages
	if pages == 0 {
		for _, cc := range s.w.Classes {
			pages += cc.Pages
		}
	}
	torn, c1 := bits.Add64(t, s.fc.Teardown, 0)
	hi, perPage := bits.Mul64(uint64(pages), s.fc.RebuildPage)
	done, c2 := bits.Add64(max(torn, s.rebuildFree), s.fc.RebuildBase, 0)
	done, c3 := bits.Add64(done, perPage, 0)
	if c1|hi|c2|c3 != 0 {
		s.err = fmt.Errorf("serve: virtual clock wrapped: the enclave rebuild after a crash at cycle %d ends past 2^64 cycles", t)
		return
	}
	s.rebuildFree = done
	s.bd.RebuildCycles += done - t
	if tr := s.cfg.Trace; tr != nil {
		tr.Record(obs.Span{Name: "crash", Cat: "fault", Ph: obs.PhInstant, T: t,
			PID: tracePIDServe, TID: int(w), NArgs: 2, Args: [obs.MaxAttrs]obs.Attr{
				{Key: "gen", Val: wk.gen}, {Key: "crashes", Val: wk.crashes}}})
		tr.Record(obs.Span{Name: "rebuild", Cat: "fault", Ph: obs.PhComplete, T: t, Dur: done - t,
			PID: tracePIDServe, TID: int(w)})
	}
	s.schedule(done, evRebuilt, w)
	// The replacement enclave's own crash clock starts after the
	// rebuild completes.
	wk.nextCrash = done + s.crashDelay(w, wk.crashes)
	s.schedule(wk.nextCrash, evCrash, w)
}

// loseAttempt fails attempt ai, in flight on an enclave that crashed at
// time t, unless it already finished or its client gave up.
func (s *sim) loseAttempt(ai int32, t uint64) {
	att := s.atts.at(ai)
	if att.flags&attDone == 0 {
		att.flags |= attDone
		if att.flags&attAbandoned == 0 {
			s.failAttempt(att.req, t)
		}
	}
}

// crashDelay draws worker w's deterministic time-to-next-crash: spread
// over [interval/2, 3*interval/2) so the pool's enclaves neither die in
// lockstep nor settle into one stable phase.
func (s *sim) crashDelay(w int32, nth uint64) uint64 {
	p := s.cfg.Fault
	r := rng.Mix(p.Seed ^ 0xc4a54ed ^ uint64(w)<<32 ^ nth)
	return p.CrashInterval/2 + r%p.CrashInterval
}

func (s *sim) recordFault(e FaultEvent) {
	if len(s.faults) < maxFaultEvents {
		s.faults = append(s.faults, e)
	} else {
		s.faultsDropped++
	}
}
