package serve

// attempt flags.
const (
	attAbandoned = 1 << iota // client gave up (deadline passed)
	attDone                  // server finished it (or it was lost to a crash)
	attAborted               // transient abort planned at dispatch
	attTimer                 // its evTimeout is pending
	attItem                  // its evItemDone is pending
	attBatch                 // it belongs to its worker's running enclave entry
)

// attHeld are the holds that keep a done attempt's slot from reuse. A
// pending evEnqueue and a queue place need no flag: an attempt is never
// done before its push lands or while it waits to be dispatched.
const attHeld = attTimer | attItem | attBatch

// attempt is one issued try of a logical request. Its slot is recycled
// once the attempt is done and nothing holds it, so the slot index is
// not an identity: serial is, wherever an attempt reaches a simulated
// value or a trace.
type attempt struct {
	service uint64
	enq     uint64 // time it became poppable
	serial  int32  // creation order over the replay
	req     int32
	class   int32
	at      int32 // queue it was pushed to until dispatch, then the worker executing it
	next    int32 // next attempt in its queue, or next free slot
	flags   uint8
}

// slabShift sets the slab's chunk size: 2^13 attempts, 320 KiB.
const slabShift = 13

// slab holds a replay's attempt records in fixed-size chunks allocated
// on demand, so growing it never copies (and never moves) a record.
// Freed slots are reused through a free list threaded through
// attempt.next, so its size follows the peak number of live attempts,
// not the number ever issued.
type slab struct {
	chunks []*[1 << slabShift]attempt
	n      int32 // slots handed out so far
	free   int32 // first free slot, -1 when none
}

func (sl *slab) at(i int32) *attempt {
	return &sl.chunks[i>>slabShift][i&(1<<slabShift-1)]
}

// alloc returns a slot for a new attempt; the caller overwrites it.
func (sl *slab) alloc() int32 {
	if i := sl.free; i >= 0 {
		sl.free = sl.at(i).next
		return i
	}
	if sl.n&(1<<slabShift-1) == 0 {
		sl.chunks = append(sl.chunks, new([1 << slabShift]attempt))
	}
	sl.n++
	return sl.n - 1
}

// release drops hold (zero or more attHeld flags) from slot i's attempt
// and frees the slot if the attempt is done and nothing else holds it.
// Callers invoke it where a hold ends or right after setting attDone, so
// a slot is freed exactly once, when its last reference goes.
func (sl *slab) release(i int32, hold uint8) {
	a := sl.at(i)
	a.flags &^= hold
	if a.flags&(attDone|attHeld) == attDone {
		a.next = sl.free
		sl.free = i
	}
}

// queue is a FIFO of attempts linked through attempt.next; head and
// tail are meaningful only while n > 0.
type queue struct {
	head, tail int32
	n          int
}

func (q *queue) push(sl *slab, i int32) {
	sl.at(i).next = -1
	if q.n == 0 {
		q.head = i
	} else {
		sl.at(q.tail).next = i
	}
	q.tail = i
	q.n++
}

func (q *queue) pop(sl *slab) int32 {
	i := q.head
	q.head = sl.at(i).next
	q.n--
	return i
}

// moveOldest moves q's oldest k attempts (1 <= k <= q.n), in order, to
// the back of dst.
func (q *queue) moveOldest(sl *slab, k int, dst *queue) {
	last := q.head
	for j := 1; j < k; j++ {
		last = sl.at(last).next
	}
	if dst.n == 0 {
		dst.head = q.head
	} else {
		sl.at(dst.tail).next = q.head
	}
	dst.tail = last
	q.head = sl.at(last).next
	sl.at(last).next = -1
	dst.n += k
	q.n -= k
}
