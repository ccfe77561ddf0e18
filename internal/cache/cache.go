// Package cache implements the set-associative cache and TLB models used
// by the timing engine.
//
// Caches are simulated at cache-line granularity with true LRU replacement
// inside each set. The model is deliberately structural (tags, sets, ways)
// rather than statistical so that residency transitions — the paper's main
// axis of analysis — fall out of the geometry: a 1 MB hash table hits in
// L2, a 100 MB one misses to DRAM, exactly as in Figures 4, 5 and 13.
//
// Two implementations of the same replacement behaviour coexist:
//
//   - Cache/TLB: the production representation. Each set stores its ways
//     in recency order (MRU first) as a single packed entry array, so a
//     hit is a short scan plus a move-to-front rotation, a miss victim is
//     always the last slot (O(1), no timestamp scan), and probe + fill
//     are one pass over the set: AccessOrFill and AccessOrFillStream are
//     the packed cache's only probes. Set counts are rounded up to a
//     power of two so indexing is a mask, not a division.
//   - RefCache/RefTLB: the original timestamp-LRU representation with
//     separate Access and Fill probes, kept verbatim as the oracle. Only
//     the engine's reference model (internal/engine/reference.go) and the
//     differential tests construct one.
//
// Both implementations make identical hit/miss/eviction decisions for
// every access sequence: move-to-front order is exactly the LRU order the
// timestamps encode, and both prefer an invalid way over evicting (in the
// packed layout invalid ways always form a suffix of the recency order, so
// the last slot is invalid whenever any way is). TestCacheFusedEquivalence
// and TestTLBImplEquivalence verify this on randomized traces.
//
// Production models are recycled through a sync.Pool per geometry: Put
// and PutTLB take a finished thread's models back, and Get and GetTLB
// hand them out again after Reset has restored exactly the state
// New/NewTLB returns (TestResetIsNew), so recycling moves host memory
// only.
package cache

import (
	"math/bits"
	"sync"

	"sgxbench/internal/platform"
)

// pow2Sets rounds a set count up to the next power of two (minimum 1) so
// that set indexing is a mask. Both implementations use the rounded count
// so they stay behaviourally identical to each other.
//
// Note the modeling consequence: a level whose set count is not a power
// of two simulates more capacity than its geometry states. The full-size
// Table 1 geometries are all exact, but every scale the repository runs
// rounds at least one level (nominal → simulated):
//
//	scale     L1D           L2             STLB
//	1         exact         exact          exact
//	32        8 → 12 KiB    exact          exact
//	64        8 → 12 KiB    exact          32 → 24 entries
//	128–512   8 → 12 KiB    16 → 20 KiB    32 → 24 entries
//
// (the STLB shrinks because Entries/Ways floors first). Making the scaled
// geometries exact is an open ROADMAP item; until then this rounding is
// part of what the golden file pins.
func pow2Sets(n int64) uint64 {
	if n < 1 {
		return 1
	}
	return 1 << uint(bits.Len64(uint64(n-1)))
}

// lineShift returns log2 of the line size.
func lineShift(lineBytes int64) uint {
	l := uint(0)
	for b := lineBytes; b > 1; b >>= 1 {
		l++
	}
	return l
}

// Cache is one set-associative level (fast representation). The zero value
// is not usable; use New.
//
// Entry encoding: 0 means invalid; otherwise (line+1)<<1 | dirtyBit.
// Within a set, entries form a circular recency list: head[s] is the
// physical index of the MRU way and recency decreases walking forward
// (with wrap-around), so the slot just before head is the LRU victim.
// A miss insert is therefore O(1) — rotate head back one slot and
// overwrite the old LRU — and only hits deeper in the recency order pay
// a partial shift to move to the front.
type Cache struct {
	mask     uint64 // sets-1 (sets is a power of two)
	stride   uint64 // words per set block in data: 16 filter words + ways
	lineBits uint
	setShift uint // log2(sets): line >> setShift is the tag
	// data interleaves each set's membership filter (16 words = 128
	// one-byte counters keyed by the low tag bits, see filtMask) with its
	// packed entries (circular recency order), so one probe touches one
	// contiguous block. The filter counts how many resident ways share a
	// key: a zero counter proves a miss without scanning the set — the
	// common case for streaming accesses, whose resident tags within a
	// set are consecutive and therefore never collide with the probed
	// line's key. Counters are exact (no false negatives); a nonzero
	// counter merely means the set must be scanned.
	data []uint64
	head []uint16           // per-set physical index of the MRU way
	geom platform.CacheGeom // the pool Put returns the cache to
}

// New builds a cache with the given geometry.
func New(g platform.CacheGeom) *Cache {
	sets := pow2Sets(g.Sets())
	stride := uint64(filtWords + g.Ways)
	return &Cache{
		mask:     sets - 1,
		stride:   stride,
		lineBits: lineShift(g.LineBytes),
		setShift: uint(bits.Len64(sets - 1)),
		data:     make([]uint64, sets*stride),
		head:     make([]uint16, sets),
		geom:     g,
	}
}

// Reset empties the cache, restoring exactly the state New returns.
func (c *Cache) Reset() {
	clear(c.data)
	clear(c.head)
}

// filtWords is the per-set width of the counting membership filter: 16
// words = 128 one-byte counters. Wider filters mean fewer tag-key
// collisions and therefore fewer false-positive set scans — a pure host
// cost; the counters are exact, so hit/miss decisions are unchanged.
const filtWords = 16

// filtMask selects the filter key from a line's tag bits (the line with
// the set index shifted out): resident lines of one set always differ in
// their tags, and a stream's recent residents have consecutive tags, so
// keys rarely collide and most misses are proven without a scan.
const filtMask = 8*filtWords - 1

// LineOf maps an address to its line number.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineBits }

// AccessOrFill merges RefCache's Access and Fill into a single pass over
// the set: on a hit the line moves to the front (and is dirtied on
// writes); on a miss the line is inserted immediately, evicting the LRU
// way — the head rotates back one slot onto the old LRU entry, so a miss
// insert is O(1) and the set is never rescanned. The eviction report
// applies only to the miss case: evictedOK is false when an invalid way
// was used and nothing was evicted.
func (c *Cache) AccessOrFill(line uint64, write bool) (hit bool, evicted uint64, evictedDirty, evictedOK bool) {
	s := line & c.mask
	fbase := s * c.stride
	blk := c.data[fbase : fbase+c.stride]
	set := blk[filtWords:]
	h := int(c.head[s])
	want := (line+1)<<1 | 1
	if mru := set[h]; mru|1 == want {
		// MRU hit: already at the front, no reorder needed.
		if write {
			set[h] = mru | 1
		}
		return true, 0, false, false
	}
	k := (line >> c.setShift) & filtMask
	fw, fs := k>>3, uint(k&7)<<3
	if blk[fw]>>fs&0xff != 0 {
		// The filter says the line may be resident: fused walk — scan,
		// move-to-front and (on a miss) fill in one write-behind pass.
		hit, evicted, evictedDirty, evictedOK = c.scanOrFill(blk, h, line, write)
		if !hit {
			blk[fw] += 1 << fs
		}
		return hit, evicted, evictedDirty, evictedOK
	}
	// Proven miss: O(1) insert, rotating the head onto the old LRU entry.
	lru := h - 1
	if lru < 0 {
		lru = len(set) - 1
	}
	if old := set[lru]; old != 0 {
		evicted = old>>1 - 1
		evictedDirty = old&1 != 0
		evictedOK = true
		ek := (evicted >> c.setShift) & filtMask
		blk[ek>>3] -= 1 << (uint(ek&7) << 3)
	}
	e := (line + 1) << 1
	if write {
		e |= 1
	}
	set[lru] = e
	c.head[s] = uint16(lru)
	blk[fw] += 1 << fs
	return false, evicted, evictedDirty, evictedOK
}

// AccessOrFillStream is AccessOrFill with the probe order tuned for
// sequential runs: the membership filter is consulted before the MRU way,
// because a streaming access is almost always a provable miss that can
// take the O(1) insert without touching the set at all. The state
// transition is identical to AccessOrFill — only the check order differs.
//
// The two bodies repeat the "proven miss" insert tail on purpose: a shared
// helper is past the inliner's budget (cost 112 > 80), and the extra call
// per streamed line made the repo benchmark's scan_stream host_rep_s worse
// in 4 of 4 alternating pairs (0.374–0.381 s → 0.401–0.414 s, +7 %).
func (c *Cache) AccessOrFillStream(line uint64, write bool) (hit bool, evicted uint64, evictedDirty, evictedOK bool) {
	s := line & c.mask
	fbase := s * c.stride
	blk := c.data[fbase : fbase+c.stride]
	set := blk[filtWords:]
	k := (line >> c.setShift) & filtMask
	fw, fs := k>>3, uint(k&7)<<3
	h := int(c.head[s])
	if blk[fw]>>fs&0xff != 0 {
		want := (line+1)<<1 | 1
		if mru := set[h]; mru|1 == want {
			if write {
				set[h] = mru | 1
			}
			return true, 0, false, false
		}
		hit, evicted, evictedDirty, evictedOK = c.scanOrFill(blk, h, line, write)
		if !hit {
			blk[fw] += 1 << fs
		}
		return hit, evicted, evictedDirty, evictedOK
	}
	// Proven miss: O(1) insert, rotating the head onto the old LRU entry.
	lru := h - 1
	if lru < 0 {
		lru = len(set) - 1
	}
	if old := set[lru]; old != 0 {
		evicted = old>>1 - 1
		evictedDirty = old&1 != 0
		evictedOK = true
		ek := (evicted >> c.setShift) & filtMask
		blk[ek>>3] -= 1 << (uint(ek&7) << 3)
	}
	e := (line + 1) << 1
	if write {
		e |= 1
	}
	set[lru] = e
	c.head[s] = uint16(lru)
	blk[fw] += 1 << fs
	return false, evicted, evictedDirty, evictedOK
}

// scanOrFill walks the set in recency order (starting after the MRU way,
// which the caller already checked) with a write-behind shift: on a hit
// the entry lands at the front with the move-to-front rotation already
// complete; on a miss every resident way has aged one position by the end
// of the walk, so writing the new line at the front slot completes the
// fill — same final state as the rotate-head insert, without rescanning.
// The caller maintains the inserted line's filter counter; the evicted
// line's counter is decremented here.
func (c *Cache) scanOrFill(blk []uint64, h int, line uint64, write bool) (hit bool, evicted uint64, evictedDirty, evictedOK bool) {
	set := blk[filtWords:]
	want := (line+1)<<1 | 1
	prev := set[h]
	for i := h + 1; i < len(set); i++ {
		cur := set[i]
		set[i] = prev
		prev = cur
		if cur|1 == want {
			if write {
				cur |= 1
			}
			set[h] = cur
			return true, 0, false, false
		}
	}
	for i := 0; i < h; i++ {
		cur := set[i]
		set[i] = prev
		prev = cur
		if cur|1 == want {
			if write {
				cur |= 1
			}
			set[h] = cur
			return true, 0, false, false
		}
	}
	// Miss: prev now holds the old LRU entry.
	if prev != 0 {
		evicted = prev>>1 - 1
		evictedDirty = prev&1 != 0
		evictedOK = true
		ek := (evicted >> c.setShift) & filtMask
		blk[ek>>3] -= 1 << (uint(ek&7) << 3)
	}
	e := (line + 1) << 1
	if write {
		e |= 1
	}
	set[h] = e
	return false, evicted, evictedDirty, evictedOK
}

// DirtyMRU marks line dirty in place. The caller guarantees that line is
// the MRU entry of its set — e.g. it was the thread's immediately
// preceding access — so the update is a single word OR with no scan and
// no recency change, exactly the state transition AccessOrFill performs
// on an MRU write hit.
func (c *Cache) DirtyMRU(line uint64) {
	s := line & c.mask
	c.data[s*c.stride+filtWords+uint64(c.head[s])] |= 1
}

// TLB is a set-associative translation lookaside buffer over 4 KiB pages
// (fast representation: circular recency order and a counting membership
// filter, exactly like Cache).
type TLB struct {
	mask     uint64
	ways     int
	setShift uint
	ents     []uint64         // 0 invalid, otherwise page+1; circular per set
	head     []uint16         // per-set physical index of the MRU way
	filt     []uint64         // 128 one-byte counters per set, keyed by tag bits
	geom     platform.TLBGeom // the pool PutTLB returns the TLB to
}

// NewTLB builds a TLB with the given geometry.
func NewTLB(g platform.TLBGeom) *TLB {
	sets := pow2Sets(int64(g.Entries / g.Ways))
	return &TLB{
		mask:     sets - 1,
		ways:     g.Ways,
		setShift: uint(bits.Len64(sets - 1)),
		ents:     make([]uint64, sets*uint64(g.Ways)),
		head:     make([]uint16, sets),
		filt:     make([]uint64, sets*filtWords),
		geom:     g,
	}
}

// Reset empties the TLB, restoring exactly the state NewTLB returns.
func (t *TLB) Reset() {
	clear(t.ents)
	clear(t.head)
	clear(t.filt)
}

// MRUHit reports whether page is the most recently used entry of its
// set. A true result means Access(page) would hit without any state
// change, so callers may skip the probe entirely.
func (t *TLB) MRUHit(page uint64) bool {
	s := page & t.mask
	return t.ents[s*uint64(t.ways)+uint64(t.head[s])] == page+1
}

// Access probes for page; on a miss the page is installed (evicting LRU).
// It returns whether the probe hit. The MRU way is checked first (a
// repeat translation of the most recent page in a set needs no reorder),
// and the counting filter proves most misses without scanning the set.
func (t *TLB) Access(page uint64) bool {
	s := page & t.mask
	base := s * uint64(t.ways)
	set := t.ents[base : base+uint64(t.ways)]
	h := int(t.head[s])
	tag := page + 1
	if set[h] == tag {
		return true
	}
	k := (page >> t.setShift) & filtMask
	fw, fs := s*filtWords+k>>3, uint(k&7)<<3
	if t.filt[fw]>>fs&0xff != 0 {
		if t.scanHit(set, h, tag) {
			return true
		}
	}
	lru := h - 1
	if lru < 0 {
		lru = len(set) - 1
	}
	if old := set[lru]; old != 0 {
		ek := ((old - 1) >> t.setShift) & filtMask
		t.filt[s*filtWords+ek>>3] -= 1 << (uint(ek&7) << 3)
	}
	set[lru] = tag
	t.head[s] = uint16(lru)
	t.filt[fw] += 1 << fs
	return false
}

// scanHit scans the set for tag in recency order (two linear segments of
// the circular layout), promoting a hit to the front.
func (t *TLB) scanHit(set []uint64, h int, tag uint64) bool {
	for i := h + 1; i < len(set); i++ {
		if set[i] == tag {
			copy(set[h+1:i+1], set[h:i])
			set[h] = tag
			return true
		}
	}
	for i := 0; i < h; i++ {
		if set[i] == tag {
			copy(set[1:i+1], set[:i])
			set[0] = set[len(set)-1]
			copy(set[h+1:], set[h:len(set)-1])
			set[h] = tag
			return true
		}
	}
	return false
}

// The pools hold the models finished threads handed back, one sync.Pool
// per geometry. They are process-wide, and the garbage collector may
// empty them.
var (
	poolMu     sync.Mutex
	cachePools = map[platform.CacheGeom]*sync.Pool{}
	tlbPools   = map[platform.TLBGeom]*sync.Pool{}
)

// poolOf returns the pool of geometry g in m, creating it on first use.
func poolOf[G comparable](m map[G]*sync.Pool, g G) *sync.Pool {
	poolMu.Lock()
	defer poolMu.Unlock()
	if m[g] == nil {
		m[g] = new(sync.Pool)
	}
	return m[g]
}

// get returns a model in the state fresh(g) returns: a pooled one of
// geometry g, reset, or fresh(g) when the pool is empty.
func get[G comparable, M interface{ Reset() }](m map[G]*sync.Pool, g G, fresh func(G) M) M {
	if x, ok := poolOf(m, g).Get().(M); ok {
		x.Reset()
		return x
	}
	return fresh(g)
}

// Get returns a cache in the state New(g) returns, recycled if it can.
func Get(g platform.CacheGeom) *Cache { return get(cachePools, g, New) }

// Put hands c back for a later Get; the caller must not use c afterwards.
func Put(c *Cache) { poolOf(cachePools, c.geom).Put(c) }

// GetTLB returns a TLB in the state NewTLB(g) returns, recycled if it can.
func GetTLB(g platform.TLBGeom) *TLB { return get(tlbPools, g, NewTLB) }

// PutTLB hands t back for a later GetTLB; the caller must not use t
// afterwards.
func PutTLB(t *TLB) { poolOf(tlbPools, t.geom).Put(t) }

// RefCache is the original timestamp-LRU cache level, kept as the
// reference implementation for the engine's per-op path (golden tests and
// cmd/bench baselines). Its replacement decisions are identical to Cache.
type RefCache struct {
	sets     uint64
	ways     int
	lineBits uint
	tags     []uint64 // sets*ways; 0 means invalid, otherwise line+1
	stamp    []uint64 // LRU timestamps
	dirty    []bool
	tick     uint64
}

// NewRef builds a reference cache with the given geometry.
func NewRef(g platform.CacheGeom) *RefCache {
	sets := pow2Sets(g.Sets())
	n := sets * uint64(g.Ways)
	return &RefCache{
		sets:     sets,
		ways:     g.Ways,
		lineBits: lineShift(g.LineBytes),
		tags:     make([]uint64, n),
		stamp:    make([]uint64, n),
		dirty:    make([]bool, n),
	}
}

// LineOf maps an address to its line number.
func (c *RefCache) LineOf(addr uint64) uint64 { return addr >> c.lineBits }

// Access probes the cache for line. On a hit it refreshes LRU state and,
// for writes, marks the line dirty.
func (c *RefCache) Access(line uint64, write bool) bool {
	base := (line % c.sets) * uint64(c.ways)
	tag := line + 1
	c.tick++
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)] == tag {
			c.stamp[base+uint64(w)] = c.tick
			if write {
				c.dirty[base+uint64(w)] = true
			}
			return true
		}
	}
	return false
}

// Fill inserts the line (after a miss), evicting the LRU way of its set.
// It reports the evicted line and whether it was dirty; ok is false when
// an invalid way was used and nothing was evicted.
func (c *RefCache) Fill(line uint64, write bool) (evicted uint64, evictedDirty, ok bool) {
	base := (line % c.sets) * uint64(c.ways)
	c.tick++
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + uint64(w)
		if c.tags[i] == 0 {
			victim = i
			oldest = 0
			break
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}
	if c.tags[victim] != 0 {
		evicted = c.tags[victim] - 1
		evictedDirty = c.dirty[victim]
		ok = true
	}
	c.tags[victim] = line + 1
	c.stamp[victim] = c.tick
	c.dirty[victim] = write
	return evicted, evictedDirty, ok
}

// RefTLB is the original timestamp-LRU TLB, the reference counterpart of
// TLB.
type RefTLB struct {
	sets  uint64
	ways  int
	tags  []uint64
	stamp []uint64
	tick  uint64
}

// NewRefTLB builds a reference TLB with the given geometry.
func NewRefTLB(g platform.TLBGeom) *RefTLB {
	sets := pow2Sets(int64(g.Entries / g.Ways))
	n := sets * uint64(g.Ways)
	return &RefTLB{sets: sets, ways: g.Ways, tags: make([]uint64, n), stamp: make([]uint64, n)}
}

// Access probes for page; on a miss the page is installed (evicting an
// empty way if present, else LRU). It returns whether the probe hit.
func (t *RefTLB) Access(page uint64) bool {
	base := (page % t.sets) * uint64(t.ways)
	tag := page + 1
	t.tick++
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.tags[i] == tag {
			t.stamp[i] = t.tick
			return true
		}
		if t.tags[i] == 0 {
			if oldest != 0 {
				oldest = 0
				victim = i
			}
			continue
		}
		if t.stamp[i] < oldest {
			oldest = t.stamp[i]
			victim = i
		}
	}
	t.tags[victim] = tag
	t.stamp[victim] = t.tick
	return false
}
