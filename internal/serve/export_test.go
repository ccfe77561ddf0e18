package serve

// AttemptChunk is the number of attempt slots one slab chunk holds.
const AttemptChunk = 1 << slabShift

// LatencyCount returns how many latencies the run recorded, the values
// its percentile histogram was built from.
func (r *Result) LatencyCount() int { return len(r.lats) }
