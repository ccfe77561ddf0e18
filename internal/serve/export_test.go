package serve

import "sgxbench/internal/obs"

// LatencyHistogram returns the run's log-bucketed latency distribution
// (one Record per terminal request, in completion order).
func (r *Result) LatencyHistogram() *obs.Histogram { return r.hist }
