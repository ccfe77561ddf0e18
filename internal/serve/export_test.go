package serve

// LatencyCount returns how many latencies the run recorded, the values
// its percentile histogram was built from.
func (r *Result) LatencyCount() int { return len(r.lats) }
