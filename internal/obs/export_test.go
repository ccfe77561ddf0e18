package obs

// Mean returns the exact mean of recorded values (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Depth returns the number of open scopes.
func (p *Profiler) Depth() int { return len(p.stack) }
