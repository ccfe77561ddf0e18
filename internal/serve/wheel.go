package serve

import (
	"math/bits"
)

const (
	wheelBits   = 6                                // slots per level = 2^6
	wheelSlots  = 1 << wheelBits                   // 64
	wheelMask   = wheelSlots - 1                   // slot index mask
	wheelLevels = (64 + wheelBits - 1) / wheelBits // 11 levels cover a full uint64 clock
)

// wheelNode is one pending event in the wheel's slab, linked into its
// slot's FIFO (or the free chain) by slab index. Index 0 is a sentinel
// that is never handed out, so a zero link means "none".
type wheelNode struct {
	ev   event
	next int32
}

// evList is an intrusive FIFO of slab nodes; the zero value is empty.
type evList struct{ head, tail int32 }

// timerWheel is the simulator's pending-event set: an indexed
// hierarchical timer wheel over the virtual clock, wheelLevels levels of
// wheelSlots slots, each level one 6-bit digit of the 64-bit timestamp.
// An event lives at the highest level whose digit differs from the
// wheel's current time `cur` (at level 0, in cur's own slot, when none
// does); per-level uint64 occupancy bitmaps make "find the earliest
// non-empty slot" one TrailingZeros64, so push and pop are O(1)
// amortized regardless of how many events are in flight.
//
// Every pending event is one node of a single slab; slots are FIFO
// lists threaded through it and popped nodes are recycled, so a cascade
// relinks nodes instead of copying events and storage is O(peak pending
// events) however long the run.
//
// Pops come out in strictly (time, schedule-seq) order — the order of
// the container/heap oracle in wheel_test.go. Proof sketch:
//   - Two events with equal t share every digit, hence the same slot at
//     every level they ever occupy; slots are FIFO, cascades preserve
//     slot order, and a direct push always carries a larger seq than
//     anything already resident. Equal-t pops are therefore in push
//     (= seq) order.
//   - Within a level every occupied digit is >= cur's digit at that
//     level (t >= cur and the higher digits match cur), so the lowest
//     set occupancy bit is the earliest slot; and any event at level
//     l is strictly earlier than any event at level m > l. Lowest
//     non-empty level + lowest set bit is therefore the global minimum.
//   - When the slot a cascade clears holds a single node, that node is
//     the global minimum (by the point above, and no other event shares
//     its time), so it is served at once with cur set to its time. Every
//     other pending event keeps its slot: one at the same level l sits in
//     a later digit, one at level m > l differs from cur in digit m, and
//     the new cur keeps the old one's digits above l, so each still first
//     differs from cur in the digit it is filed under.
type timerWheel struct {
	cur  uint64 // lower bound on every pending event's time
	n    int
	occ  [wheelLevels]uint64
	slot [wheelLevels][wheelSlots]evList

	nodes []wheelNode
	free  int32 // head of the recycled-node chain
}

// newTimerWheel returns an empty wheel whose node slab has room for n
// pending events before it grows.
func newTimerWheel(n int) *timerWheel { return &timerWheel{nodes: make([]wheelNode, 1, n+1)} }

func (w *timerWheel) empty() bool { return w.n == 0 }

// push adds e, which must not be earlier than cur (the time of the
// event last popped): the simulator's scheduleGen refuses an event in
// the past with an error instead of pushing it.
func (w *timerWheel) push(e event) {
	w.n++
	i := w.free
	if i != 0 {
		w.free = w.nodes[i].next
	} else {
		i = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{})
	}
	// Field by field: e arrives in registers, and a whole-struct copy
	// would spill it to the stack first and stall reading it back.
	ev := &w.nodes[i].ev
	ev.t, ev.seq, ev.gen, ev.who, ev.kind = e.t, e.seq, e.gen, e.who, e.kind
	w.place(i)
}

// levelOf maps bits.Len64(t ^ cur) to the level of the highest digit in
// which an event's time differs from cur. An event at cur itself (length
// 0) belongs to the level-0 slot being drained.
var levelOf = func() (lv [65]uint8) {
	for n := 1; n <= 64; n++ {
		lv[n] = uint8((n - 1) / wheelBits)
	}
	return
}()

// place links node i (t >= cur) at the tail of its slot.
func (w *timerWheel) place(i int32) {
	nd := &w.nodes[i]
	nd.next = 0
	lvl := levelOf[bits.Len64(nd.ev.t^w.cur)]
	s := (nd.ev.t >> (lvl * wheelBits)) & wheelMask
	w.occ[lvl] |= 1 << s
	l := &w.slot[lvl][s]
	if l.head == 0 {
		l.head = i
	} else {
		w.nodes[l.tail].next = i
	}
	l.tail = i
}

func (w *timerWheel) pop() event {
	w.n--
	for w.occ[0] == 0 {
		// Cascade the earliest slot of the lowest occupied level: advance
		// cur's digit at that level to the slot's, zero the digits below,
		// and re-file the slot's nodes in order — each lands at a strictly
		// lower level (its digit at this level now matches cur), so this
		// terminates. Shift counts >= 64 are defined as 0 in Go, which
		// makes the top level's mask come out all-ones for free.
		lvl := 1
		for lvl < wheelLevels && w.occ[lvl] == 0 {
			lvl++
		}
		s := bits.TrailingZeros64(w.occ[lvl]) // panics via index if popped empty — caller bug
		l := w.slot[lvl][s]
		w.slot[lvl][s] = evList{}
		w.occ[lvl] &^= 1 << uint(s)
		if l.head == l.tail {
			// A lone node is the global minimum: serve it without re-filing.
			w.cur = w.nodes[l.head].ev.t
			return w.release(l.head)
		}
		shift := uint(lvl) * wheelBits
		mask := uint64(1)<<(shift+wheelBits) - 1
		w.cur = w.cur&^mask | uint64(s)<<shift
		for i := l.head; i != 0; {
			next := w.nodes[i].next
			w.place(i)
			i = next
		}
	}
	// Advance to the earliest level-0 slot's (single) timestamp and serve
	// it FIFO; pushes at that time join its tail.
	s := bits.TrailingZeros64(w.occ[0])
	w.cur = w.cur&^wheelMask | uint64(s)
	l := &w.slot[0][s]
	i := l.head
	l.head = w.nodes[i].next
	if l.head == 0 {
		w.occ[0] &^= 1 << uint(s)
	}
	return w.release(i)
}

// release recycles popped node i and returns its event.
func (w *timerWheel) release(i int32) event {
	nd := &w.nodes[i]
	nd.next = w.free
	w.free = i
	return nd.ev
}
