package obs

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the exact minimum recorded value (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Mean returns the exact mean of recorded values (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Len returns the number of retained records.
func (t *Tracer) Len() int { return len(t.buf) }

// Depth returns the number of open scopes.
func (p *Profiler) Depth() int { return len(p.stack) }
