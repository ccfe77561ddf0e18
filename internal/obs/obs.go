// Package obs is the deterministic observability layer: per-request
// span tracing, virtual-clock metrics timelines, log-bucketed latency
// histograms and hierarchical cycle-attribution profiles.
//
// Everything in this package READS simulated state and never steers it:
// no type here schedules events, draws randomness or touches a clock.
// Recording a span is plain host-side bookkeeping, so attaching a
// Tracer/Metrics/Profiler to a simulation leaves every simulated cycle,
// check value and golden entry bit-identical — the zero-perturbation
// invariant the serve and query differential tests pin.
//
// The package is a leaf: it imports only the standard library, so the
// engine, exec and serve layers can all attach to it without cycles.
package obs

// Attr is one named uint64 attribute attached to a span or a profile
// node (worker/shard/generation ids on spans, cycle attributions on
// profile phases). A slice of Attrs keeps attribute order deterministic
// where a map would not.
type Attr struct {
	Key string
	Val uint64
}

// Span phase kinds, matching the Chrome trace-event "ph" field.
const (
	PhComplete = 'X' // a [T, T+Dur) interval
	PhInstant  = 'i' // a point event
)

// MaxAttrs is the most attributes one span carries.
const MaxAttrs = 4

// Span is one trace record on the virtual clock: a complete interval
// (PhComplete) or an instant (PhInstant). PID/TID select the Perfetto
// track: the serving simulator uses pid 0 / tid worker for server-side
// spans and pid 1 / tid client for client-side ones. Its attributes are
// held inline — the first NArgs entries of Args — so recording a span
// allocates nothing beyond the tracer's ring.
type Span struct {
	Name  string
	Cat   string
	Ph    byte
	T     uint64 // start (or instant time) in virtual cycles
	Dur   uint64 // PhComplete only
	PID   int
	TID   int
	Args  [MaxAttrs]Attr
	NArgs int
}

// Attrs returns the span's attributes in recording order.
func (s *Span) Attrs() []Attr { return s.Args[:s.NArgs] }

// TraceStats counts a Tracer's traffic.
type TraceStats struct {
	// Spans and Instants count recorded events by phase kind.
	Spans    uint64 `json:"spans"`
	Instants uint64 `json:"instants"`
	// Dropped counts records evicted from the ring buffer to make room
	// for newer ones — the explicit truncation signal.
	Dropped uint64 `json:"dropped"`
}

// DefaultTraceCap is the ring capacity NewTracer uses for capacity < 1.
const DefaultTraceCap = 1 << 16

// Tracer is a fixed-capacity ring buffer of spans. Once full, each new
// record evicts the oldest one and increments the dropped counter, so a
// long scenario keeps its most recent window and reports exactly how
// much history it shed.
type Tracer struct {
	cap   int
	buf   []Span
	next  int // ring write position once the buffer is full
	stats TraceStats
}

// NewTracer returns a tracer retaining up to capacity records
// (DefaultTraceCap when capacity < 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultTraceCap
	}
	return &Tracer{cap: capacity}
}

// Record appends one span, evicting the oldest record when full.
func (t *Tracer) Record(s Span) {
	if s.Ph == PhInstant {
		t.stats.Instants++
	} else {
		t.stats.Spans++
	}
	if len(t.buf) < t.cap {
		if n := len(t.buf); n == cap(t.buf) {
			// The ring grows by doubling up to its capacity, so filling
			// it allocates about twice what it keeps; append's ~1.25x
			// steps for large slices allocate about four times it.
			grown := make([]Span, n, min(max(2*n, 16), t.cap))
			copy(grown, t.buf)
			t.buf = grown
		}
		t.buf = append(t.buf, s)
		return
	}
	t.buf[t.next] = s
	t.next = (t.next + 1) % t.cap
	t.stats.Dropped++
}

// Dropped returns how many records were evicted from the ring.
func (t *Tracer) Dropped() uint64 { return t.stats.Dropped }

// Stats returns the tracer's traffic counters.
func (t *Tracer) Stats() TraceStats { return t.stats }

// Spans returns the retained records in recording order, oldest first.
func (t *Tracer) Spans() []Span {
	if len(t.buf) < t.cap || t.next == 0 {
		return append([]Span(nil), t.buf...)
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}
