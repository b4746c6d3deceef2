package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomTrace builds a structurally valid random trace.
func randomTrace(r *rand.Rand) *Trace {
	n := 1 + r.Intn(20)
	tr := &Trace{Requests: make([]Request, 0, n)}
	classes := []string{"alpha", "beta", "gamma"}
	now := 0.0
	for i := 0; i < n; i++ {
		now += r.Float64()
		req := Request{
			ID:         int64(i),
			Class:      classes[r.Intn(len(classes))],
			Server:     r.Intn(4),
			Arrival:    now,
			Retries:    r.Intn(3),
			FailedOver: r.Intn(4) == 0,
		}
		t := now
		for s := 0; s < r.Intn(6); s++ {
			span := Span{
				Subsystem: Subsystem(r.Intn(4)),
				Start:     t,
				Duration:  r.Float64() * 0.01,
				Op:        Op(r.Intn(3)),
				Bytes:     r.Int63n(1 << 22),
				LBN:       r.Int63n(1 << 30),
				Bank:      r.Intn(8),
				Util:      r.Float64(),
			}
			t = span.End()
			req.Spans = append(req.Spans, span)
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, tr); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The append forms round-trip through the readers as the Write forms do.
func TestAppendRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		fromCSV, err := ReadCSV(bytes.NewReader(AppendCSV(nil, tr)))
		if err != nil || !reflect.DeepEqual(fromCSV, tr) {
			return false
		}
		js, err := AppendJSON(nil, tr)
		if err != nil {
			return false
		}
		fromJSON, err := ReadJSON(bytes.NewReader(js))
		return err == nil && reflect.DeepEqual(fromJSON, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomTracesValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return randomTrace(r).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLatencyNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r)
		for _, req := range tr.Requests {
			if req.Latency() < 0 {
				return false
			}
		}
		// Interarrivals are non-negative after sorting.
		for _, g := range tr.Interarrivals() {
			if g < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	nan := func() float64 {
		var z float64
		return z / z
	}()
	cases := []*Trace{
		{Requests: []Request{{ID: 1, Arrival: nan}}},
		{Requests: []Request{{ID: 1, Spans: []Span{{Subsystem: CPU, Duration: nan}}}}},
		{Requests: []Request{{ID: 1, Spans: []Span{{Subsystem: CPU, Start: nan}}}}},
		{Requests: []Request{{ID: 1, Spans: []Span{{Subsystem: CPU, Util: nan}}}}},
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: NaN should be rejected", i)
		}
	}
}
