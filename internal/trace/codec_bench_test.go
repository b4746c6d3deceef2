package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// benchCodecTrace builds a 1000-request trace with the Figure 1 span
// structure, the shape the CSV codec serializes in the CLI pipelines.
func benchCodecTrace() *Trace {
	r := rand.New(rand.NewSource(1))
	t := &Trace{Requests: make([]Request, 1000)}
	subs := []Subsystem{Network, CPU, Memory, Storage, CPU, Network}
	now := 0.0
	for i := range t.Requests {
		now += r.ExpFloat64() / 50
		req := Request{ID: int64(i), Class: "read64K", Server: i % 4, Arrival: now}
		start := now
		for _, sub := range subs {
			d := r.Float64() * 1e-3
			req.Spans = append(req.Spans, Span{
				Subsystem: sub, Start: start, Duration: d,
				Op: OpRead, Bytes: 64 << 10, LBN: int64(r.Intn(1 << 20)), Bank: i % 8,
				Util: r.Float64(),
			})
			start += d
		}
		t.Requests[i] = req
	}
	return t
}

func BenchmarkWriteCSV(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteCSV(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteJSON(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendCSV(b *testing.B) {
	tr := benchCodecTrace()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendCSV(buf[:0], tr)
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	tr := benchCodecTrace()
	var buf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendJSON(buf[:0], tr); err != nil {
			b.Fatal(err)
		}
	}
}

// checkWriteAllocs: a text writer allocates its scratch slice and little
// else, whatever the length of the trace (the encoding/csv writer this
// replaced made 50 902 allocations for the 1000-request trace).
func checkWriteAllocs(t *testing.T, write func(io.Writer, *Trace) error) {
	short := benchCodecTrace()
	long := &Trace{Requests: append(append([]Request{}, short.Requests...), short.Requests...)}
	var buf bytes.Buffer
	for _, tr := range []*Trace{short, long} {
		allocs := testing.AllocsPerRun(20, func() {
			buf.Reset()
			if err := write(&buf, tr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%d requests: %.0f allocations, want <= 32", tr.Len(), allocs)
		}
	}
}

func TestWriteCSVAllocs(t *testing.T)  { checkWriteAllocs(t, WriteCSV) }
func TestWriteJSONAllocs(t *testing.T) { checkWriteAllocs(t, WriteJSON) }

func BenchmarkReadCSV(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
