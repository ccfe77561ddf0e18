package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
)

// Chrome trace-event JSON export (the "JSON Array Format" with the
// traceEvents wrapper object), loadable in Perfetto and chrome://tracing.
// Spans become "X" (complete) and "i" (instant) events; the metrics
// timeline becomes "C" (counter) events. Timestamps are emitted in raw
// virtual cycles — the trace is a simulated timeline, not host time, so
// the "microsecond" unit the viewers assume is just a label.
//
// Output is byte-deterministic: events are written in recording order
// and args as maps, which encoding/json marshals with sorted keys.

// traceEvent is one trace-event record. Dur uses a pointer so instant
// and counter events omit it while complete events keep an explicit 0.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteTrace writes tr's spans and m's metrics timeline (either may be
// nil) as Chrome trace-event JSON. Ring-buffer truncation is reported
// in otherData (dropped_spans / dropped_samples), never silently.
func WriteTrace(w io.Writer, tr *Tracer, m *Metrics) error {
	var f traceFile
	f.TraceEvents = []traceEvent{} // a valid, loadable trace even when empty
	other := map[string]any{}
	if tr != nil {
		for _, s := range tr.Spans() {
			ev := traceEvent{
				Name: s.Name, Cat: s.Cat, Ts: s.T, PID: s.PID, TID: s.TID,
			}
			if s.Ph == PhInstant {
				ev.Ph = "i"
				ev.Scope = "t"
			} else {
				ev.Ph = "X"
				dur := s.Dur
				ev.Dur = &dur
			}
			if s.NArgs > 0 {
				ev.Args = map[string]any{}
				for _, a := range s.Attrs() {
					ev.Args[a.Key] = a.Val
				}
			}
			f.TraceEvents = append(f.TraceEvents, ev)
		}
		other["dropped_spans"] = tr.Dropped()
	}
	if m != nil {
		f.TraceEvents = append(f.TraceEvents, counterEvents(m)...)
		other["dropped_samples"] = m.Dropped()
		other["metrics_interval_cycles"] = m.Interval()
	}
	f.OtherData = other
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// counterEvents renders the gauge timeline as one counter track per
// Gauges field plus a stacked per-shard queue-depth track. The Gauges
// struct is walked reflectively so a newly added gauge appears in the
// export by construction.
func counterEvents(m *Metrics) []traceEvent {
	var evs []traceEvent
	gt := reflect.TypeOf(Gauges{})
	for _, s := range m.Samples() {
		gv := reflect.ValueOf(s.G)
		for i := 0; i < gv.NumField(); i++ {
			evs = append(evs, traceEvent{
				Name: gaugeName(gt.Field(i)), Ph: "C", Ts: s.T,
				Args: map[string]any{"value": gv.Field(i).Uint()},
			})
		}
		if len(s.Shards) > 0 {
			args := map[string]any{}
			for si, d := range s.Shards {
				args[fmt.Sprintf("s%03d", si)] = d
			}
			evs = append(evs, traceEvent{Name: "shard_depth", Ph: "C", Ts: s.T, Args: args})
		}
	}
	return evs
}

// gaugeName is the counter-track name of a Gauges field: its json tag.
func gaugeName(f reflect.StructField) string {
	if tag := f.Tag.Get("json"); tag != "" {
		return tag
	}
	return f.Name
}
