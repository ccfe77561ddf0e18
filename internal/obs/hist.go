package obs

import "math/bits"

// Log-bucketed latency histogram, HDR-style: each power-of-two octave
// splits into 1<<histSubBits sub-buckets, so the relative bucket width
// is at most 1/32 (~3%) everywhere while the whole uint64 range fits in
// a fixed 1920-entry count array. Values below two octaves of
// sub-buckets (v < 64) are recorded exactly. Pure integer arithmetic:
// recording and querying are deterministic and allocation-free, which
// is what lets the serving simulator replace its O(n log n) sorted-
// slice percentile pass without perturbing a single simulated cycle.

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// histBuckets covers octaves histSubBits..63 plus the exact linear
	// region below histSub (bucketIndex peaks at histBuckets-1 for the
	// top sub-bucket of the e=63 octave).
	histBuckets = (64 - histSubBits + 1) * histSub
)

// Histogram is a log-bucketed distribution of uint64 values (virtual-
// clock cycles). The zero value is NOT ready; use NewHistogram.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    uint64
	max    uint64
	min    uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets)}
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // 2^e <= v < 2^(e+1), e >= histSubBits
	return (e-histSubBits+1)*histSub + int(v>>uint(e-histSubBits)) - histSub
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) uint64 {
	oct := i / histSub
	if oct == 0 {
		return uint64(i)
	}
	e := oct + histSubBits - 1
	shift := uint(e - histSubBits)
	low := uint64(histSub+i%histSub) << shift
	return low + (uint64(1) << shift) - 1
}

// BucketWidth returns the width of the bucket containing v — the
// guaranteed bound on |Percentile(p) - exact p-th value| for any
// distribution, since bucketing preserves rank order.
func BucketWidth(v uint64) uint64 {
	if v < 2*histSub {
		return 1
	}
	return uint64(1) << uint(bits.Len64(v)-1-histSubBits)
}

// Record adds one value.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the exact maximum recorded value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Min returns the exact minimum recorded value (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Percentile returns the nearest-rank p-th percentile (p in [0, 100]),
// quantized to the upper edge of the rank's bucket and clamped to the
// exact [min, max] range: the result is >= the exact value and within
// one bucket width of it. Empty histograms return 0, and p <= 0 returns
// the exact minimum (the 0th percentile is the smallest value, not the
// upper edge of its bucket).
func (h *Histogram) Percentile(p int) uint64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	rank := (h.n*uint64(p) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if u := bucketUpper(i); u < h.max {
				return u
			}
			return h.max
		}
	}
	return h.max
}

// Merge accumulates o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if o.n > 0 && (h.n == 0 || o.min < h.min) {
		h.min = o.min
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
