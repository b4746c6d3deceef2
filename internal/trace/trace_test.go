package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleTrace builds a small two-class trace with the GFS phase structure.
func sampleTrace() *Trace {
	return &Trace{Requests: []Request{
		{
			ID: 1, Class: "read64K", Arrival: 0.0,
			Spans: []Span{
				{Subsystem: Network, Start: 0.0, Duration: 0.001, Bytes: 65536},
				{Subsystem: CPU, Start: 0.001, Duration: 0.0005, Util: 0.021},
				{Subsystem: Memory, Start: 0.0015, Duration: 0.0002, Op: OpRead, Bytes: 16384, Bank: 2},
				{Subsystem: Storage, Start: 0.0017, Duration: 0.008, Op: OpRead, Bytes: 65536, LBN: 1024},
				{Subsystem: CPU, Start: 0.0097, Duration: 0.0004, Util: 0.02},
				{Subsystem: Network, Start: 0.0101, Duration: 0.001, Bytes: 65536},
			},
		},
		{
			ID: 2, Class: "write4M", Arrival: 0.5,
			Retries: 2, FailedOver: true,
			Spans: []Span{
				{Subsystem: Network, Start: 0.5, Duration: 0.004, Bytes: 4 << 20},
				{Subsystem: CPU, Start: 0.504, Duration: 0.001, Util: 0.051},
				{Subsystem: Storage, Start: 0.505, Duration: 0.012, Op: OpWrite, Bytes: 4 << 20, LBN: 9999},
			},
		},
		{ID: 3, Class: "read64K", Arrival: 0.9},
	}}
}

func TestSubsystemStringRoundTrip(t *testing.T) {
	for _, s := range Subsystems() {
		parsed, err := ParseSubsystem(s.String())
		if err != nil || parsed != s {
			t.Errorf("round trip %v: %v %v", s, parsed, err)
		}
	}
	if _, err := ParseSubsystem("bogus"); err == nil {
		t.Error("bogus subsystem should fail")
	}
	if got := Subsystem(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown subsystem string = %q", got)
	}
}

func TestOpStringRoundTrip(t *testing.T) {
	for _, o := range []Op{OpNone, OpRead, OpWrite} {
		parsed, err := ParseOp(o.String())
		if err != nil || parsed != o {
			t.Errorf("round trip %v: %v %v", o, parsed, err)
		}
	}
	if got, err := ParseOp(""); err != nil || got != OpNone {
		t.Error("empty op should parse to OpNone")
	}
	if _, err := ParseOp("bogus"); err == nil {
		t.Error("bogus op should fail")
	}
}

func TestRequestLatency(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Requests[0].Latency(); math.Abs(got-0.0111) > 1e-9 {
		t.Errorf("latency = %g, want 0.0111", got)
	}
	if got := tr.Requests[2].Latency(); got != 0 {
		t.Errorf("span-less latency = %g, want 0", got)
	}
}

func TestRequestPhasesAndSpansIn(t *testing.T) {
	r := sampleTrace().Requests[0]
	want := []Subsystem{Network, CPU, Memory, Storage, CPU, Network}
	if !reflect.DeepEqual(r.Phases(), want) {
		t.Errorf("phases = %v, want %v", r.Phases(), want)
	}
	if got := len(r.SpansIn(CPU)); got != 2 {
		t.Errorf("CPU spans = %d, want 2", got)
	}
	if got := len(r.SpansIn(Storage)); got != 1 {
		t.Errorf("storage spans = %d, want 1", got)
	}
}

func TestTraceClassesAndByClass(t *testing.T) {
	tr := sampleTrace()
	if !reflect.DeepEqual(tr.Classes(), []string{"read64K", "write4M"}) {
		t.Errorf("classes = %v", tr.Classes())
	}
	sub := tr.ByClass("read64K")
	if sub.Len() != 2 {
		t.Errorf("ByClass len = %d, want 2", sub.Len())
	}
	if tr.ByClass("nope").Len() != 0 {
		t.Error("unknown class should be empty")
	}
}

func TestTraceSortByArrival(t *testing.T) {
	tr := sampleTrace()
	for i, j := 0, tr.Len()-1; i < j; i, j = i+1, j-1 {
		tr.Requests[i], tr.Requests[j] = tr.Requests[j], tr.Requests[i]
	}
	tr.SortByArrival()
	if !reflect.DeepEqual(tr.Arrivals(), sampleTrace().Arrivals()) {
		t.Errorf("sorted arrivals = %v", tr.Arrivals())
	}
}

func TestTraceArrivalsInterarrivals(t *testing.T) {
	tr := sampleTrace()
	arr := tr.Arrivals()
	if !reflect.DeepEqual(arr, []float64{0, 0.5, 0.9}) {
		t.Errorf("arrivals = %v", arr)
	}
	gaps := tr.Interarrivals()
	if len(gaps) != 2 || math.Abs(gaps[0]-0.5) > 1e-12 || math.Abs(gaps[1]-0.4) > 1e-12 {
		t.Errorf("interarrivals = %v", gaps)
	}
	if (&Trace{}).Interarrivals() != nil {
		t.Error("empty interarrivals should be nil")
	}
}

func TestSpanFeature(t *testing.T) {
	tr := sampleTrace()
	utils := tr.SpanFeature(CPU, func(s Span) float64 { return s.Util })
	if len(utils) != 3 {
		t.Fatalf("cpu features = %v", utils)
	}
	if utils[0] != 0.021 || utils[2] != 0.051 {
		t.Errorf("cpu utils = %v", utils)
	}
	lbns := tr.SpanFeature(Storage, func(s Span) float64 { return float64(s.LBN) })
	if !reflect.DeepEqual(lbns, []float64{1024, 9999}) {
		t.Errorf("lbns = %v", lbns)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Errorf("sample trace should validate: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"negative arrival", func(tr *Trace) { tr.Requests[0].Arrival = -1; tr.Requests[0].Spans = nil }},
		{"duplicate id", func(tr *Trace) { tr.Requests[1].ID = 1 }},
		{"negative duration", func(tr *Trace) { tr.Requests[0].Spans[0].Duration = -1 }},
		{"span before arrival", func(tr *Trace) { tr.Requests[0].Spans[0].Start = -0.5 }},
		{"bad subsystem", func(tr *Trace) { tr.Requests[0].Spans[0].Subsystem = 42 }},
		{"negative bytes", func(tr *Trace) { tr.Requests[0].Spans[0].Bytes = -1 }},
		{"bad util", func(tr *Trace) { tr.Requests[0].Spans[1].Util = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := sampleTrace()
			tt.mutate(tr)
			if err := tr.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

// validateWithSet is Trace.Validate as it was before its strictly
// increasing fast path: one set of seen IDs over the whole trace. It is the
// oracle the fast path is held to, error text and order included.
func validateWithSet(t *Trace) error {
	ids := make(map[int64]bool, len(t.Requests))
	for i := range t.Requests {
		r := &t.Requests[i]
		if err := r.Validate(); err != nil {
			return err
		}
		if ids[r.ID] {
			return fmt.Errorf("trace: duplicate request ID %d (index %d)", r.ID, i)
		}
		ids[r.ID] = true
	}
	return nil
}

// TestValidateMatchesSet: Trace.Validate builds no set of IDs while they
// strictly increase and falls back to one at the first that does not; on
// every ID order, with an invalid request placed anywhere, it returns the
// error the one-set loop returns.
func TestValidateMatchesSet(t *testing.T) {
	tests := []struct {
		name    string
		ids     []int64
		invalid int // index of a request with a NaN utilization, or -1
		want    string
	}{
		{"increasing", []int64{1, 2, 5, 9}, -1, ""},
		{"increasing, one invalid", []int64{1, 2, 5, 9}, 2, "request 5 span 0 has utilization NaN"},
		{"invalid before a duplicate", []int64{1, 2, 2}, 1, "request 2 span 0 has utilization NaN"},
		{"invalid after a decrease, before a duplicate", []int64{1, 3, 2, 3}, 2, "request 2 span 0 has utilization NaN"},
		{"duplicate at the first non-increase", []int64{1, 2, 2}, -1, "duplicate request ID 2 (index 2)"},
		{"duplicate after a decrease", []int64{5, 3, 4, 5}, -1, "duplicate request ID 5 (index 3)"},
		{"duplicate of an ID from the increasing run", []int64{1, 4, 7, 2, 3, 4}, -1, "duplicate request ID 4 (index 5)"},
		{"decreasing, no duplicate", []int64{9, 7, 8, 1}, -1, ""},
		{"duplicate after an invalid one", []int64{3, 1, 3}, 0, "request 3 span 0 has utilization NaN"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := &Trace{}
			for i, id := range tt.ids {
				util := 0.5
				if i == tt.invalid {
					util = math.NaN()
				}
				tr.Requests = append(tr.Requests, Request{ID: id, Class: "c", Arrival: float64(i),
					Spans: []Span{{Subsystem: CPU, Start: float64(i), Duration: 0.001, Util: util}}})
			}
			got, want := tr.Validate(), validateWithSet(tr)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Validate = %v, the one-set loop = %v", got, want)
			}
			if tt.want == "" && got != nil || tt.want != "" && (got == nil || !strings.Contains(got.Error(), tt.want)) {
				t.Fatalf("Validate = %v, want an error naming %q", got, tt.want)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	tr := sampleTrace()
	s := tr.Summarize()
	if s.Requests != 3 {
		t.Errorf("requests = %d", s.Requests)
	}
	if s.SpanCounts[CPU] != 3 || s.SpanCounts[Storage] != 2 || s.SpanCounts[Network] != 3 {
		t.Errorf("span counts = %v", s.SpanCounts)
	}
	if s.Duration < 0.9 {
		t.Errorf("duration = %g", s.Duration)
	}
	if got := (&Trace{}).Summarize(); got.Requests != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("csv round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Error("wrong header width should fail")
	}
	badHeader := strings.Replace(strings.Join(csvHeader, ","), "req_id", "nope", 1)
	if _, err := ReadCSV(strings.NewReader(badHeader + "\n")); err == nil {
		t.Error("wrong header name should fail")
	}
	good := strings.Join(csvHeader, ",") + "\n"
	badRows := []string{
		"x,c,0,0,network,0,0,none,0,0,0,0,0,0",  // bad id
		"1,c,x,0,network,0,0,none,0,0,0,0,0,0",  // bad server
		"1,c,0,x,network,0,0,none,0,0,0,0,0,0",  // bad arrival
		"1,c,0,0,bogus,0,0,none,0,0,0,0,0,0",    // bad subsystem
		"1,c,0,0,network,x,0,none,0,0,0,0,0,0",  // bad start
		"1,c,0,0,network,0,x,none,0,0,0,0,0,0",  // bad duration
		"1,c,0,0,network,0,0,bogus,0,0,0,0,0,0", // bad op
		"1,c,0,0,network,0,0,none,x,0,0,0,0,0",  // bad bytes
		"1,c,0,0,network,0,0,none,0,x,0,0,0,0",  // bad lbn
		"1,c,0,0,network,0,0,none,0,0,x,0,0,0",  // bad bank
		"1,c,0,0,network,0,0,none,0,0,0,x,0,0",  // bad util
		"1,c,0,0,network,0,0,none,0,0,0,0,x,0",  // bad retries
		"1,c,0,0,network,0,0,none,0,0,0,0,0,x",  // bad failover
		"1,c,0,0,network,0,0,none,0,0,0,0",      // legacy-width row under new header
	}
	for _, row := range badRows {
		if _, err := ReadCSV(strings.NewReader(good + row + "\n")); err == nil {
			t.Errorf("row %q should fail", row)
		}
	}
}

// TestCSVLegacyHeader: traces written before the retries/failover columns
// existed still decode, with zero annotations.
func TestCSVLegacyHeader(t *testing.T) {
	legacy := strings.Join(csvHeader[:numLegacyCSVColumns], ",") + "\n" +
		"7,read64K,3,0.25,network,0.25,0.001,none,4096,0,0,0\n" +
		"7,read64K,3,0.25,storage,0.251,0.008,read,4096,77,0,0\n"
	got, err := ReadCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != 1 {
		t.Fatalf("got %d requests, want 1", len(got.Requests))
	}
	r := got.Requests[0]
	if r.ID != 7 || r.Server != 3 || len(r.Spans) != 2 {
		t.Fatalf("legacy decode mismatch: %+v", r)
	}
	if r.Retries != 0 || r.FailedOver {
		t.Fatalf("legacy rows must decode with zero annotations, got %+v", r)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("json round trip mismatch")
	}
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("bad json should fail")
	}
}
