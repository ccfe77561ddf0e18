package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"sgxbench/internal/obs"
)

// TestGaugesJSONTags: every gauge needs a json tag — it names the
// counter track in the trace export.
func TestGaugesJSONTags(t *testing.T) {
	gt := reflect.TypeOf(obs.Gauges{})
	for i := 0; i < gt.NumField(); i++ {
		if gt.Field(i).Tag.Get("json") == "" {
			t.Errorf("Gauges.%s has no json tag (counter track name)", gt.Field(i).Name)
		}
	}
}

// TestTracerRecordsInOrder: below capacity, nothing drops and spans
// come back in recording order.
func TestTracerRecordsInOrder(t *testing.T) {
	tr := obs.NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Record(obs.Span{Name: "s", Ph: obs.PhComplete, T: uint64(i)})
	}
	if tr.Len() != 5 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 5/0", tr.Len(), tr.Dropped())
	}
	for i, s := range tr.Spans() {
		if s.T != uint64(i) {
			t.Fatalf("span %d at T=%d, want %d", i, s.T, i)
		}
	}
	st := tr.Stats()
	if st.Spans != 5 || st.Instants != 0 {
		t.Fatalf("stats = %+v, want 5 spans", st)
	}
}

// TestTracerRingEviction: past capacity, the oldest records drop, the
// dropped counter says how many, and order stays oldest-first.
func TestTracerRingEviction(t *testing.T) {
	tr := obs.NewTracer(4)
	for i := 0; i < 11; i++ {
		tr.Record(obs.Span{Ph: obs.PhInstant, T: uint64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	spans := tr.Spans()
	for i, s := range spans {
		if want := uint64(7 + i); s.T != want {
			t.Fatalf("span %d at T=%d, want %d (newest window, oldest first)", i, s.T, want)
		}
	}
	if st := tr.Stats(); st.Instants != 11 {
		t.Fatalf("instants = %d, want 11 (drops do not uncount)", st.Instants)
	}
}

// TestTracerDefaultCap: capacity < 1 falls back to the default.
func TestTracerDefaultCap(t *testing.T) {
	tr := obs.NewTracer(0)
	for i := 0; i < obs.DefaultTraceCap; i++ {
		tr.Record(obs.Span{Ph: obs.PhComplete})
	}
	if tr.Dropped() != 0 || tr.Len() != obs.DefaultTraceCap {
		t.Fatalf("default cap: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

// TestMetricsDueRecord: boundaries fire at exact multiples of the
// interval, and each Record advances exactly one boundary.
func TestMetricsDueRecord(t *testing.T) {
	m := obs.NewMetrics(100, 16)
	if m.Due(99) {
		t.Fatal("due before first boundary")
	}
	if !m.Due(100) {
		t.Fatal("not due at first boundary")
	}
	// An event at t=350 crosses boundaries 100, 200, 300: record each.
	for m.Due(350) {
		m.Record(obs.Gauges{QueueDepth: 3}, []uint64{1, 2})
	}
	if m.Len() != 3 {
		t.Fatalf("len = %d, want 3 samples for 3 crossed boundaries", m.Len())
	}
	for i, s := range m.Samples() {
		if want := uint64(100 * (i + 1)); s.T != want {
			t.Fatalf("sample %d at T=%d, want %d", i, s.T, want)
		}
		if s.G.QueueDepth != 3 || len(s.Shards) != 2 {
			t.Fatalf("sample %d payload %+v", i, s)
		}
	}
}

// TestMetricsRingEviction: the sample ring keeps the newest window.
func TestMetricsRingEviction(t *testing.T) {
	m := obs.NewMetrics(10, 4)
	for i := 0; i < 9; i++ {
		m.Record(obs.Gauges{}, nil)
	}
	if m.Len() != 4 || m.Dropped() != 5 {
		t.Fatalf("len=%d dropped=%d, want 4/5", m.Len(), m.Dropped())
	}
	s := m.Samples()
	for i := range s {
		if want := uint64(10 * (6 + i)); s[i].T != want {
			t.Fatalf("sample %d at T=%d, want %d", i, s[i].T, want)
		}
	}
}

// TestMetricsDefaults: non-positive interval/capacity fall back.
func TestMetricsDefaults(t *testing.T) {
	m := obs.NewMetrics(0, 0)
	if m.Interval() != obs.DefaultMetricsInterval {
		t.Fatalf("interval = %d, want default", m.Interval())
	}
	if m.Due(obs.DefaultMetricsInterval-1) || !m.Due(obs.DefaultMetricsInterval) {
		t.Fatal("default interval boundary wrong")
	}
}

// TestWriteTraceRoundTrip: the export parses as JSON, has the expected
// event mix, and reports ring truncation in otherData.
func TestWriteTraceRoundTrip(t *testing.T) {
	tr := obs.NewTracer(8)
	tr.Record(obs.Span{
		Name: "service", Cat: "serve", Ph: obs.PhComplete, T: 100, Dur: 50,
		PID: 0, TID: 3, NArgs: 2, Args: [obs.MaxAttrs]obs.Attr{{Key: "req", Val: 7}, {Key: "worker", Val: 3}},
	})
	tr.Record(obs.Span{Name: "shed", Cat: "client", Ph: obs.PhInstant, T: 160, PID: 1, TID: 9})
	m := obs.NewMetrics(64, 8)
	m.Record(obs.Gauges{QueueDepth: 4, BusyWorkers: 2}, []uint64{3, 1})

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, tr, m); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Ph    string         `json:"ph"`
			Ts    uint64         `json:"ts"`
			Dur   *uint64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var nX, nI, nC int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			nX++
			if ev.Dur == nil {
				t.Errorf("complete event %q without dur", ev.Name)
			}
			if ev.Name == "service" {
				if *ev.Dur != 50 || ev.Ts != 100 || ev.TID != 3 {
					t.Errorf("service span mangled: %+v", ev)
				}
				if got := ev.Args["worker"]; got != float64(3) {
					t.Errorf("service span worker arg = %v", got)
				}
			}
		case "i":
			nI++
			if ev.Scope != "t" {
				t.Errorf("instant %q scope = %q, want t", ev.Name, ev.Scope)
			}
		case "C":
			nC++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	gaugeTracks := reflect.TypeOf(obs.Gauges{}).NumField()
	if nX != 1 || nI != 1 || nC != gaugeTracks+1 {
		t.Fatalf("event mix X=%d i=%d C=%d, want 1/1/%d", nX, nI, nC, gaugeTracks+1)
	}
	for _, k := range []string{"dropped_spans", "dropped_samples", "metrics_interval_cycles"} {
		if _, ok := f.OtherData[k]; !ok {
			t.Errorf("otherData missing %q", k)
		}
	}
}

// TestWriteTraceNilParts: either source may be nil; the output is still
// a valid, loadable trace.
func TestWriteTraceNilParts(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *obs.Tracer
		m    *obs.Metrics
	}{
		{"both nil", nil, nil},
		{"tracer only", obs.NewTracer(2), nil},
		{"metrics only", nil, obs.NewMetrics(1, 2)},
	} {
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, tc.tr, tc.m); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var f map[string]any
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatalf("%s: invalid JSON: %v", tc.name, err)
		}
		if _, ok := f["traceEvents"].([]any); !ok {
			t.Fatalf("%s: traceEvents missing or not an array", tc.name)
		}
	}
}

// TestWriteTraceDeterministic: two identical recordings export
// byte-identical files.
func TestWriteTraceDeterministic(t *testing.T) {
	build := func() ([]byte, error) {
		tr := obs.NewTracer(4)
		tr.Record(obs.Span{Name: "a", Ph: obs.PhComplete, T: 1, Dur: 2,
			NArgs: 3, Args: [obs.MaxAttrs]obs.Attr{{Key: "z", Val: 1}, {Key: "a", Val: 2}, {Key: "m", Val: 3}}})
		m := obs.NewMetrics(5, 4)
		m.Record(obs.Gauges{QueueDepth: 1}, []uint64{9, 8, 7})
		var buf bytes.Buffer
		err := obs.WriteTrace(&buf, tr, m)
		return buf.Bytes(), err
	}
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("trace export is not byte-deterministic")
	}
}
